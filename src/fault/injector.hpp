// FaultInjector: the runtime oracle that turns a FaultPlan into concrete
// fault decisions during a simulated run.
//
// Determinism is the design constraint (the stack must stay bit-identical
// run to run for a fixed plan + seed), so every decision is a pure function
// of *message identity*, never of global arrival order:
//
//   * daemon/rank deaths are preset time thresholds, read-only after
//     construction -- liveness is `now < dead_at`, no arming events;
//   * a message's fate hashes (seed, action, src, dst, per-stream ordinal);
//     the ordinal counter is keyed by (action, src, dst), and each such
//     stream is advanced by exactly one deterministic sender, so the count
//     a message observes does not depend on other streams' traffic;
//   * shard tears are keyed by (pid, run index), both deterministic.
//
// The injector is passive: layers consult it at their own hook points
// (dpcl request paths, mpi::Rank::send_raw, vt::TraceShard::spill) and it
// never schedules events itself.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "fault/plan.hpp"
#include "fault/report.hpp"

namespace dyntrace::fault {

/// What happens to one message in flight.
struct MessageFate {
  bool drop = false;         ///< vanish without a trace
  int duplicates = 0;        ///< extra copies delivered alongside the original
  double delay_factor = 1.0; ///< multiplies the in-flight delay (<= kMaxFactor)

  /// Copies that arrive (0 = dropped).
  int copies() const { return drop ? 0 : 1 + duplicates; }
};

/// `delay` stretched by a fault factor, rounded to the nearest nanosecond.
/// A factor of exactly 1.0 -- every factor of an empty plan -- returns
/// `delay` unchanged.
sim::TimeNs scale_delay(sim::TimeNs delay, double factor);

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  RunReport& report() { return report_; }
  const RunReport& report() const { return report_; }

  // --- liveness (pure time functions over preset thresholds) ---------------

  /// False while the node's daemon is permanently dead (kill-daemon) or
  /// inside a flap-daemon downtime window.  A flapping daemon drops the
  /// requests it receives while down and serves normally once restarted.
  bool daemon_alive(int node, sim::TimeNs now) const;
  /// Rank liveness.  `job` scopes the query in multi-job runs (rank ids are
  /// job-local): an action carrying job= only matches queries naming that
  /// job, while an unscoped action matches every query.  Single-job callers
  /// pass nothing and see exactly the pre-multi-job behaviour.
  bool rank_alive(int rank, sim::TimeNs now, std::string_view job = {}) const;
  /// When the node's daemon dies *permanently* (kNever if it does not).
  /// Flap windows do not count: a flapped daemon always comes back.
  sim::TimeNs daemon_dead_at(int node) const;
  /// Ranks dead at `now`, ascending; same job scoping as rank_alive().
  std::vector<int> dead_ranks(sim::TimeNs now, std::string_view job = {}) const;
  /// True when the plan can make this node's daemon sick without killing
  /// it for good (flap-daemon or degrade-daemon actions name it).
  bool daemon_gray_prone(int node) const;

  /// Combined degrade-daemon service-time multiplier for `node` at `now`
  /// (1.0 outside every window, capped at kMaxFactor).  Read-only.
  double daemon_degrade_factor(int node, sim::TimeNs now) const;

  /// The plan's storm actions as (at, sessions) pairs, ascending by time.
  /// Consumed by the svcapp scenario harness to burst-admit sessions.
  std::vector<std::pair<sim::TimeNs, int>> storms() const;

  // --- messages -------------------------------------------------------------

  /// Decide the fate of one message.  Advances the per-(action, src, dst)
  /// ordinal streams, so call exactly once per physical send.
  MessageFate message_fate(Channel channel, int src, int dst, sim::TimeNs now);

  /// Combined slow-node multiplier for a message touching `node` at `now`
  /// (1.0 outside every stall window, capped at kMaxFactor).  Read-only.
  double stall_factor(int node, sim::TimeNs now) const;

  // --- trace shards ---------------------------------------------------------

  /// Bytes of spill run `run_index` of pid's shard that actually reach the
  /// disk (== `bytes` when no tear action matches).  A short return tears
  /// the run; the event is recorded in the report.  `job` scopes the query
  /// as in rank_alive().
  std::size_t spill_bytes(std::int32_t pid, std::uint64_t run_index, std::size_t bytes,
                          std::string_view job = {});

 private:
  bool action_matches_message(const FaultAction& action, std::size_t action_index,
                              Channel channel, int src, int dst);

  struct RankDeath {
    int rank = -1;
    sim::TimeNs at = 0;
    std::string job;  ///< empty = every job

    auto operator<=>(const RankDeath&) const = default;
  };

  FaultPlan plan_;
  RunReport report_;
  std::vector<std::pair<int, sim::TimeNs>> daemon_dead_;  ///< (node, at), ascending node
  std::vector<RankDeath> rank_dead_;                      ///< ascending rank
  bool has_message_actions_[3] = {false, false, false};   ///< per Channel
  bool has_flap_actions_ = false;
  bool has_degrade_actions_ = false;
  std::map<std::tuple<std::size_t, int, int>, std::uint64_t> counters_;
};

}  // namespace dyntrace::fault
