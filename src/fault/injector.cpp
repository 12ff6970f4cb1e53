#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

#include "support/common.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::fault {

namespace {

/// Uniform draw in [0, 1) from a pure hash of the message identity.
double unit_draw(std::uint64_t seed, std::size_t action_index, Channel channel, int src,
                 int dst, std::uint64_t ordinal) {
  std::uint64_t h = splitmix_fold(seed, 0x6661756c74ULL);  // "fault"
  h = splitmix_fold(h, static_cast<std::uint64_t>(action_index));
  h = splitmix_fold(h, static_cast<std::uint64_t>(channel));
  h = splitmix_fold(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(src)));
  h = splitmix_fold(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(dst)));
  h = splitmix_fold(h, ordinal);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

sim::TimeNs scale_delay(sim::TimeNs delay, double factor) {
  if (factor == 1.0) return delay;
  return static_cast<sim::TimeNs>(std::llround(static_cast<double>(delay) * factor));
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (const FaultAction& action : plan_.actions) {
    switch (action.kind) {
      case FaultAction::Kind::kKillDaemon:
        daemon_dead_.emplace_back(action.node, action.at);
        break;
      case FaultAction::Kind::kKillRank:
        rank_dead_.push_back(RankDeath{action.rank, action.at, action.job});
        break;
      case FaultAction::Kind::kDrop:
      case FaultAction::Kind::kDup:
      case FaultAction::Kind::kDelay:
        has_message_actions_[static_cast<std::size_t>(action.channel)] = true;
        break;
      case FaultAction::Kind::kFlapDaemon:
        has_flap_actions_ = true;
        break;
      case FaultAction::Kind::kDegradeDaemon:
        has_degrade_actions_ = true;
        break;
      case FaultAction::Kind::kStall:
      case FaultAction::Kind::kTearShard:
      case FaultAction::Kind::kStorm:
        break;
    }
  }
  std::sort(daemon_dead_.begin(), daemon_dead_.end());
  std::sort(rank_dead_.begin(), rank_dead_.end());
}

sim::TimeNs FaultInjector::daemon_dead_at(int node) const {
  for (const auto& [dead_node, at] : daemon_dead_) {
    if (dead_node == node) return at;
  }
  return kNever;
}

bool FaultInjector::daemon_alive(int node, sim::TimeNs now) const {
  if (now >= daemon_dead_at(node)) return false;
  if (has_flap_actions_) {
    for (const FaultAction& action : plan_.actions) {
      if (action.kind != FaultAction::Kind::kFlapDaemon || action.node != node) continue;
      if (now < action.at || now >= action.until) continue;
      if ((now - action.at) % action.period < action.downtime) return false;
    }
  }
  return true;
}

bool FaultInjector::daemon_gray_prone(int node) const {
  if (!has_flap_actions_ && !has_degrade_actions_) return false;
  for (const FaultAction& action : plan_.actions) {
    if ((action.kind == FaultAction::Kind::kFlapDaemon ||
         action.kind == FaultAction::Kind::kDegradeDaemon) &&
        action.node == node) {
      return true;
    }
  }
  return false;
}

double FaultInjector::daemon_degrade_factor(int node, sim::TimeNs now) const {
  if (!has_degrade_actions_) return 1.0;
  double factor = 1.0;
  for (const FaultAction& action : plan_.actions) {
    if (action.kind != FaultAction::Kind::kDegradeDaemon || action.node != node) continue;
    if (now >= action.at && now < action.until) factor *= action.factor;
  }
  return std::min(factor, kMaxFactor);
}

std::vector<std::pair<sim::TimeNs, int>> FaultInjector::storms() const {
  std::vector<std::pair<sim::TimeNs, int>> out;
  for (const FaultAction& action : plan_.actions) {
    if (action.kind != FaultAction::Kind::kStorm) continue;
    out.emplace_back(action.at, static_cast<int>(action.sessions));
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool FaultInjector::rank_alive(int rank, sim::TimeNs now, std::string_view job) const {
  for (const RankDeath& d : rank_dead_) {
    if (d.rank != rank) continue;
    if (!d.job.empty() && d.job != job) continue;
    if (now >= d.at) return false;
  }
  return true;
}

std::vector<int> FaultInjector::dead_ranks(sim::TimeNs now, std::string_view job) const {
  std::vector<int> out;
  for (const RankDeath& d : rank_dead_) {
    if (!d.job.empty() && d.job != job) continue;
    if (now < d.at) continue;
    if (out.empty() || out.back() != d.rank) out.push_back(d.rank);
  }
  return out;
}

bool FaultInjector::action_matches_message(const FaultAction& action,
                                           std::size_t action_index, Channel channel,
                                           int src, int dst) {
  if (action.channel != channel) return false;
  if (action.src >= 0 && action.src != src) return false;
  if (action.dst >= 0 && action.dst != dst) return false;
  // Ordinal within this action's (src, dst) stream; advanced exactly once
  // per eligible message by its (single, deterministic) sender.
  const std::uint64_t ordinal = counters_[std::make_tuple(action_index, src, dst)]++;
  if (action.probability >= 0) {
    if (ordinal < static_cast<std::uint64_t>(action.skip)) return false;
    return unit_draw(plan_.seed, action_index, channel, src, dst, ordinal) <
           action.probability;
  }
  if (action.nth >= 0) return ordinal == static_cast<std::uint64_t>(action.nth);
  // skip, count >= 0 (the parser rejects negatives); compare the offset into
  // the window so skip + count cannot overflow.
  const auto skip = static_cast<std::uint64_t>(action.skip);
  return ordinal >= skip && ordinal - skip < static_cast<std::uint64_t>(action.count);
}

MessageFate FaultInjector::message_fate(Channel channel, int src, int dst,
                                        sim::TimeNs now) {
  (void)now;
  MessageFate fate;
  if (!has_message_actions_[static_cast<std::size_t>(channel)]) return fate;
  for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
    const FaultAction& action = plan_.actions[i];
    switch (action.kind) {
      case FaultAction::Kind::kDrop:
        if (action_matches_message(action, i, channel, src, dst)) fate.drop = true;
        break;
      case FaultAction::Kind::kDup:
        if (action_matches_message(action, i, channel, src, dst)) ++fate.duplicates;
        break;
      case FaultAction::Kind::kDelay:
        if (action_matches_message(action, i, channel, src, dst)) {
          fate.delay_factor = std::min(fate.delay_factor * action.factor, kMaxFactor);
        }
        break;
      default:
        break;
    }
  }
  if (fate.drop || fate.duplicates > 0 || fate.delay_factor != 1.0) {
    telemetry::Registry& reg = telemetry::current();
    const telemetry::Metrics& tm = reg.metrics();
    if (fate.drop) reg.add(tm.fault_drops);
    if (fate.duplicates > 0) reg.add(tm.fault_dups, static_cast<std::uint64_t>(fate.duplicates));
    if (fate.delay_factor != 1.0) reg.add(tm.fault_delays);
  }
  return fate;
}

double FaultInjector::stall_factor(int node, sim::TimeNs now) const {
  double factor = 1.0;
  for (const FaultAction& action : plan_.actions) {
    if (action.kind != FaultAction::Kind::kStall || action.node != node) continue;
    if (now >= action.at && now < action.until) factor *= action.factor;
  }
  return std::min(factor, kMaxFactor);
}

std::size_t FaultInjector::spill_bytes(std::int32_t pid, std::uint64_t run_index,
                                       std::size_t bytes, std::string_view job) {
  for (const FaultAction& action : plan_.actions) {
    if (action.kind != FaultAction::Kind::kTearShard) continue;
    if (action.rank != pid || action.spill != run_index) continue;
    if (!action.job.empty() && action.job != job) continue;
    const auto kept = static_cast<std::size_t>(
        std::floor(static_cast<double>(bytes) * action.keep));
    {
      telemetry::Registry& reg = telemetry::current();
      reg.add(reg.metrics().fault_tears);
    }
    report_.add(0, "shard-torn",
                str::format("pid=%d run=%llu kept %zu of %zu bytes", pid,
                            static_cast<unsigned long long>(run_index), kept, bytes),
                {pid});
    return kept;
  }
  return bytes;
}

}  // namespace dyntrace::fault
