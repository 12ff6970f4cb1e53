#include "fault/plan.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::fault {

namespace {

struct KeyValue {
  std::string key;
  std::string value;
};

std::vector<std::string> split_ws(std::string_view line) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : line) {
    if (c == ' ' || c == '\t') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

sim::TimeNs parse_time(const std::string& text, const std::string& where) {
  if (text == "never") return kNever;
  std::size_t suffix = text.size();
  while (suffix > 0 && !(text[suffix - 1] >= '0' && text[suffix - 1] <= '9')) --suffix;
  const std::string digits = text.substr(0, suffix);
  const std::string unit = text.substr(suffix);
  DT_EXPECT(!digits.empty(), where, ": bad time '", text, "'");
  double value = 0;
  try {
    value = std::stod(digits);
  } catch (const std::exception&) {
    fail(where, ": bad time '", text, "'");
  }
  if (unit.empty() || unit == "ns") return static_cast<sim::TimeNs>(value);
  if (unit == "us") return sim::microseconds(value);
  if (unit == "ms") return sim::milliseconds(value);
  if (unit == "s") return sim::seconds(value);
  fail(where, ": unknown time unit '", unit, "' (use ns/us/ms/s)");
}

Channel parse_channel(const std::string& text, const std::string& where) {
  if (text == "daemon") return Channel::kDaemon;
  if (text == "overlay") return Channel::kOverlay;
  if (text == "app") return Channel::kApp;
  fail(where, ": unknown channel '", text, "' (daemon, overlay, app)");
}

class ActionParser {
 public:
  ActionParser(const std::vector<std::string>& tokens, std::string where)
      : where_(std::move(where)) {
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      DT_EXPECT(eq != std::string::npos && eq > 0, where_, ": expected key=value, got '",
                tokens[i], "'");
      pairs_.push_back(KeyValue{tokens[i].substr(0, eq), tokens[i].substr(eq + 1)});
    }
  }

  std::optional<std::string> take(const std::string& key) {
    for (auto it = pairs_.begin(); it != pairs_.end(); ++it) {
      if (it->key == key) {
        std::string value = it->value;
        pairs_.erase(it);
        return value;
      }
    }
    return std::nullopt;
  }

  void apply_int(const std::string& key, int* out) {
    if (auto v = take(key)) *out = static_cast<int>(parse_int(*v));
  }
  void apply_i64(const std::string& key, std::int64_t* out) {
    if (auto v = take(key)) *out = parse_int(*v);
  }
  void apply_u64(const std::string& key, std::uint64_t* out) {
    if (auto v = take(key)) *out = static_cast<std::uint64_t>(parse_int(*v));
  }
  void apply_double(const std::string& key, double* out) {
    if (auto v = take(key)) *out = parse_double(*v);
  }
  /// A delay/stall/degrade multiplier: finite and in [1, kMaxFactor].
  void apply_factor(const std::string& verb, double* out) {
    const auto v = take("factor");
    if (!v) return;
    *out = parse_double(*v);
    DT_EXPECT(std::isfinite(*out) && *out >= 1.0 && *out <= kMaxFactor, where_, ": ", verb,
              " factor must be in [1, ", kMaxFactor, "], got '", *v, "'");
  }
  void apply_time(const std::string& key, sim::TimeNs* out) {
    if (auto v = take(key)) *out = parse_time(*v, where_);
  }
  void apply_channel(const std::string& key, Channel* out) {
    if (auto v = take(key)) *out = parse_channel(*v, where_);
  }

  void finish() const {
    DT_EXPECT(pairs_.empty(), where_, ": unknown key '",
              pairs_.empty() ? "" : pairs_.front().key, "'");
  }

 private:
  std::int64_t parse_int(const std::string& text) const {
    try {
      return std::stoll(text);
    } catch (const std::exception&) {
      fail(where_, ": bad integer '", text, "'");
    }
  }
  double parse_double(const std::string& text) const {
    try {
      return std::stod(text);
    } catch (const std::exception&) {
      fail(where_, ": bad number '", text, "'");
    }
  }

  std::string where_;
  std::vector<KeyValue> pairs_;
};

void parse_message_selectors(ActionParser& p, FaultAction* action, const std::string& where) {
  p.apply_channel("channel", &action->channel);
  p.apply_int("src", &action->src);
  p.apply_int("dst", &action->dst);
  p.apply_double("prob", &action->probability);
  p.apply_i64("nth", &action->nth);
  p.apply_i64("skip", &action->skip);
  p.apply_i64("count", &action->count);
  DT_EXPECT(action->probability >= 0 || action->nth >= 0 || action->count >= 0, where,
            ": message action needs one of prob=, nth= or count=");
  DT_EXPECT(action->probability <= 1.0, where, ": prob must be in [0, 1]");
}

std::string format_time(sim::TimeNs t) {
  if (t == kNever) return "never";
  if (t % sim::seconds(1) == 0) return str::format("%llds", static_cast<long long>(t / sim::seconds(1)));
  if (t % sim::milliseconds(1) == 0)
    return str::format("%lldms", static_cast<long long>(t / sim::milliseconds(1)));
  if (t % sim::microseconds(1) == 0)
    return str::format("%lldus", static_cast<long long>(t / sim::microseconds(1)));
  return str::format("%lldns", static_cast<long long>(t));
}

void append_message_selectors(std::string& out, const FaultAction& a) {
  out += str::format(" channel=%s", to_string(a.channel));
  if (a.src >= 0) out += str::format(" src=%d", a.src);
  if (a.dst >= 0) out += str::format(" dst=%d", a.dst);
  if (a.probability >= 0) out += str::format(" prob=%g", a.probability);
  if (a.nth >= 0) out += str::format(" nth=%lld", static_cast<long long>(a.nth));
  if (a.skip > 0) out += str::format(" skip=%lld", static_cast<long long>(a.skip));
  if (a.count >= 0) out += str::format(" count=%lld", static_cast<long long>(a.count));
}

}  // namespace

const char* to_string(Channel channel) {
  switch (channel) {
    case Channel::kDaemon: return "daemon";
    case Channel::kOverlay: return "overlay";
    case Channel::kApp: return "app";
  }
  return "?";
}

FaultPlan FaultPlan::parse(std::string_view text, const std::string& origin) {
  FaultPlan plan;
  int line_no = 0;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto tokens = split_ws(line);
    if (tokens.empty()) continue;
    const std::string where = str::format("%s:%d", origin.c_str(), line_no);
    const std::string& verb = tokens[0];

    if (verb == "seed") {
      DT_EXPECT(tokens.size() == 2, where, ": seed takes one value");
      try {
        plan.seed = std::stoull(tokens[1]);
      } catch (const std::exception&) {
        fail(where, ": bad seed '", tokens[1], "'");
      }
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
      p.apply_double("keep", &action.keep);
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

std::string FaultPlan::to_text() const {
  std::string out = str::format("seed %llu\n", static_cast<unsigned long long>(seed));
  for (const FaultAction& a : actions) {
    switch (a.kind) {
      case FaultAction::Kind::kKillDaemon:
        out += str::format("kill-daemon node=%d at=%s", a.node, format_time(a.at).c_str());
        break;
      case FaultAction::Kind::kKillRank:
        out += str::format("kill-rank rank=%d at=%s", a.rank, format_time(a.at).c_str());
        if (!a.job.empty()) out += str::format(" job=%s", a.job.c_str());
        break;
      case FaultAction::Kind::kDrop:
        out += "drop";
        append_message_selectors(out, a);
        break;
      case FaultAction::Kind::kDup:
        out += "dup";
        append_message_selectors(out, a);
        break;
      case FaultAction::Kind::kDelay:
        out += "delay";
        append_message_selectors(out, a);
        out += str::format(" factor=%g", a.factor);
        break;
      case FaultAction::Kind::kStall:
        out += str::format("stall node=%d from=%s until=%s factor=%g", a.node,
                           format_time(a.at).c_str(), format_time(a.until).c_str(), a.factor);
        break;
      case FaultAction::Kind::kTearShard:
        out += str::format("tear-shard rank=%d spill=%llu keep=%g", a.rank,
                           static_cast<unsigned long long>(a.spill), a.keep);
        if (!a.job.empty()) out += str::format(" job=%s", a.job.c_str());
        break;
      case FaultAction::Kind::kFlapDaemon:
        out += str::format("flap-daemon node=%d period=%s downtime=%s", a.node,
                           format_time(a.period).c_str(), format_time(a.downtime).c_str());
        if (a.at != 0) out += str::format(" from=%s", format_time(a.at).c_str());
        if (a.until != kNever) out += str::format(" until=%s", format_time(a.until).c_str());
        break;
      case FaultAction::Kind::kDegradeDaemon:
        out += str::format("degrade-daemon node=%d factor=%g", a.node, a.factor);
        if (a.at != 0) out += str::format(" from=%s", format_time(a.at).c_str());
        if (a.until != kNever) out += str::format(" until=%s", format_time(a.until).c_str());
        break;
      case FaultAction::Kind::kStorm:
        out += str::format("storm sessions=%lld at=%s", static_cast<long long>(a.sessions),
                           format_time(a.at).c_str());
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace dyntrace::fault
