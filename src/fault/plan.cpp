#include "fault/plan.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::fault {

namespace {

/// A plan time: sim::parse_time, or "never".
sim::TimeNs parse_time(const std::string& text, const std::string& where) {
  return text == "never" ? kNever : sim::parse_time(text, where);
}

/// An unsigned value (seed, spill index): digits only, within u64.
std::uint64_t parse_index(const std::string& text, const std::string& where) {
  const auto v = str::parse_u64(text);
  DT_EXPECT(v.has_value(), where, ": bad unsigned integer '", text, "'");
  return *v;
}

Channel parse_channel(const std::string& text, const std::string& where) {
  if (text == "daemon") return Channel::kDaemon;
  if (text == "overlay") return Channel::kOverlay;
  if (text == "app") return Channel::kApp;
  fail(where, ": unknown channel '", text, "' (daemon, overlay, app)");
}

/// The shared key=value reader plus the plan's own value kinds.
class ActionParser : public str::KeyValueLine {
 public:
  ActionParser(const std::vector<std::string>& tokens, std::string where)
      : KeyValueLine(tokens, 1, std::move(where)) {}

  /// A count or ordinal: -1 (the field's "unset") is only the default, so an
  /// explicit value must be >= 0.
  void apply_count(const std::string& key, std::int64_t* out) {
    const auto v = take(key);
    if (!v) return;
    *out = to_i64(*v);
    DT_EXPECT(*out >= 0, where(), ": ", key, " must be >= 0, got '", *v, "'");
  }
  void apply_u64(const std::string& key, std::uint64_t* out) {
    if (auto v = take(key)) *out = parse_index(*v, where());
  }
  /// A delay/stall/degrade multiplier: finite and in [1, kMaxFactor].
  void apply_factor(const std::string& verb, double* out) {
    const auto v = take("factor");
    if (!v) return;
    *out = to_f64(*v);
    DT_EXPECT(std::isfinite(*out) && *out >= 1.0 && *out <= kMaxFactor, where(), ": ", verb,
              " factor must be in [1, ", kMaxFactor, "], got '", *v, "'");
  }
  void apply_time(const std::string& key, sim::TimeNs* out) {
    if (auto v = take(key)) *out = parse_time(*v, where());
  }
  void apply_channel(const std::string& key, Channel* out) {
    if (auto v = take(key)) *out = parse_channel(*v, where());
  }
};

void parse_message_selectors(ActionParser& p, FaultAction* action, const std::string& where) {
  p.apply_channel("channel", &action->channel);
  p.apply_int("src", &action->src);
  p.apply_int("dst", &action->dst);
  p.apply_f64("prob", &action->probability);
  p.apply_count("nth", &action->nth);
  p.apply_count("skip", &action->skip);
  p.apply_count("count", &action->count);
  DT_EXPECT(action->probability >= 0 || action->nth >= 0 || action->count >= 0, where,
            ": message action needs one of prob=, nth= or count=");
  DT_EXPECT(action->probability <= 1.0, where, ": prob must be in [0, 1]");
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view text, const std::string& origin) {
  FaultPlan plan;
  int line_no = 0;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto tokens = str::split_ws(line);
    if (tokens.empty()) continue;
    const std::string where = str::format("%s:%d", origin.c_str(), line_no);
    const std::string& verb = tokens[0];

    if (verb == "seed") {
      DT_EXPECT(tokens.size() == 2, where, ": seed takes one value");
      plan.seed = parse_index(tokens[1], where);
      continue;
    }

    FaultAction action;
    ActionParser p(tokens, where);
    if (verb == "kill-daemon") {
      action.kind = FaultAction::Kind::kKillDaemon;
      p.apply_int("node", &action.node);
      p.apply_time("at", &action.at);
      DT_EXPECT(action.node >= 0, where, ": kill-daemon needs node=");
    } else if (verb == "kill-rank") {
      action.kind = FaultAction::Kind::kKillRank;
      p.apply_int("rank", &action.rank);
      p.apply_time("at", &action.at);
      if (auto v = p.take("job")) action.job = *v;
      DT_EXPECT(action.rank >= 0, where, ": kill-rank needs rank=");
    } else if (verb == "drop") {
      action.kind = FaultAction::Kind::kDrop;
      parse_message_selectors(p, &action, where);
    } else if (verb == "dup") {
      action.kind = FaultAction::Kind::kDup;
      parse_message_selectors(p, &action, where);
    } else if (verb == "delay") {
      action.kind = FaultAction::Kind::kDelay;
      parse_message_selectors(p, &action, where);
      p.apply_factor(verb, &action.factor);
    } else if (verb == "stall") {
      action.kind = FaultAction::Kind::kStall;
      p.apply_int("node", &action.node);
      p.apply_time("from", &action.at);
      p.apply_time("until", &action.until);
      p.apply_factor(verb, &action.factor);
      DT_EXPECT(action.node >= 0, where, ": stall needs node=");
      DT_EXPECT(action.until > action.at, where, ": stall window is empty");
    } else if (verb == "tear-shard") {
      action.kind = FaultAction::Kind::kTearShard;
      p.apply_int("rank", &action.rank);
      p.apply_u64("spill", &action.spill);
      p.apply_f64("keep", &action.keep);
      if (auto v = p.take("job")) action.job = *v;
      DT_EXPECT(action.rank >= 0, where, ": tear-shard needs rank=");
      DT_EXPECT(action.keep >= 0 && action.keep < 1.0, where,
                ": tear-shard keep must be in [0, 1)");
    } else if (verb == "flap-daemon") {
      action.kind = FaultAction::Kind::kFlapDaemon;
      p.apply_int("node", &action.node);
      p.apply_time("period", &action.period);
      p.apply_time("downtime", &action.downtime);
      p.apply_time("from", &action.at);
      p.apply_time("until", &action.until);
      DT_EXPECT(action.node >= 0, where, ": flap-daemon needs node=");
      DT_EXPECT(action.period > 0, where, ": flap-daemon needs period=");
      DT_EXPECT(action.downtime > 0 && action.downtime < action.period, where,
                ": flap-daemon downtime must be in (0, period)");
      DT_EXPECT(action.until > action.at, where, ": flap-daemon window is empty");
    } else if (verb == "degrade-daemon") {
      action.kind = FaultAction::Kind::kDegradeDaemon;
      p.apply_int("node", &action.node);
      p.apply_factor(verb, &action.factor);
      p.apply_time("from", &action.at);
      p.apply_time("until", &action.until);
      DT_EXPECT(action.node >= 0, where, ": degrade-daemon needs node=");
      DT_EXPECT(action.until > action.at, where, ": degrade-daemon window is empty");
    } else if (verb == "storm") {
      action.kind = FaultAction::Kind::kStorm;
      p.apply_i64("sessions", &action.sessions);
      p.apply_time("at", &action.at);
      DT_EXPECT(action.sessions > 0, where, ": storm needs sessions=");
    } else {
      fail(where, ": unknown fault verb '", verb,
           "' (seed, kill-daemon, kill-rank, drop, dup, delay, stall, tear-shard, "
           "flap-daemon, degrade-daemon, storm)");
    }
    p.finish();
    action.where = where;
    plan.actions.push_back(std::move(action));
  }
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  DT_EXPECT(in.good(), "cannot open fault plan '", path, "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), path);
}

void FaultPlan::check_targets(int nodes, const std::vector<JobExtent>& jobs) const {
  int max_ranks = 0;
  for (const JobExtent& job : jobs) max_ranks = std::max(max_ranks, job.ranks);
  for (const FaultAction& a : actions) {
    if (a.node >= 0) {
      DT_EXPECT(a.node < nodes, a.where, ": node=", a.node, " does not exist (the machine has ",
                nodes, " nodes)");
    }
    if (a.rank < 0) continue;
    if (a.job.empty()) {
      DT_EXPECT(a.rank < max_ranks, a.where, ": rank=", a.rank,
                " does not exist (the largest job has ", max_ranks, " ranks)");
      continue;
    }
    for (const JobExtent& job : jobs) {
      if (job.name != a.job) continue;
      DT_EXPECT(a.rank < job.ranks, a.where, ": rank=", a.rank, " does not exist (job '",
                job.name, "' has ", job.ranks, " ranks)");
    }
  }
}

}  // namespace dyntrace::fault
