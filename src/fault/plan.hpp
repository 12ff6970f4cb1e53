// Deterministic fault plans (the robustness harness's input).
//
// A FaultPlan is a seeded list of fault actions injected into a simulated
// run: daemon and rank deaths at chosen virtual times, message drops /
// duplications / delays on the control-plane channels, whole-node stalls,
// and torn trace-shard spills.  Plans are plain text so experiments can be
// checked into configs/ and replayed bit-identically:
//
//     seed 42
//     kill-daemon node=3 at=150s
//     kill-rank rank=5 at=150s
//     kill-rank job=smg98 rank=5 at=150s
//     tear-shard job=sppm rank=7 spill=0 keep=0.5
//     drop channel=daemon prob=0.05
//     drop channel=overlay src=3 dst=0 nth=0
//     dup channel=overlay prob=0.5
//     delay channel=daemon factor=10 prob=1.0
//     stall node=2 from=10s until=20s factor=4
//     tear-shard rank=7 spill=0 keep=0.5
//     flap-daemon node=2 period=120s downtime=30s from=100s until=500s
//     degrade-daemon node=1 factor=1000 from=100s until=300s
//     storm sessions=64 at=40s
//
// The gray-failure verbs model sick-but-not-dead components: `flap-daemon`
// kills and restarts a node's comm daemon on a fixed cadence (dead for
// `downtime` out of every `period`, starting at `from`), `degrade-daemon`
// leaves the daemon alive but multiplies its service time by `factor`
// inside [from, until), and `storm` asks the svcapp scenario harness to
// burst-admit `sessions` extra sessions at `at`.  All three are pure time
// functions of the plan -- no RNG, no arming events.
//
// In multi-job runs (DESIGN.md §15) rank ids are job-local, so the
// rank-scoped verbs `kill-rank` and `tear-shard` accept `job=<name>` to pick
// one job; without it the action applies to the matching rank of *every*
// job (and, in a single-job run, to the one job regardless of its name).
// A job-named action is inert in runs that never pass a job name.
//
// Times accept the suffixes ns/us/ms/s (bare numbers are nanoseconds).
// Message actions select eligible messages per (action, src, dst) stream:
// `nth=K` matches the K-th, `skip=S count=N` matches a window, and
// `prob=p` draws from a hash of (seed, stream, ordinal) -- never from
// shared RNG state, so a message's fate is independent of the order other
// streams make progress (see DESIGN.md §9).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace dyntrace::fault {

/// Which traffic class a message action applies to.  kDaemon covers DPCL
/// request/ack/callback traffic (src/dst are *node* ids); kOverlay covers
/// the statistics-overlay tag band (src/dst are *rank* ids); kApp is the
/// application's own MPI traffic (delays and stalls only make sense here --
/// dropping app messages deadlocks the workload, which is the app's bug to
/// model, not the control plane's).
enum class Channel : std::uint8_t { kDaemon = 0, kOverlay = 1, kApp = 2 };

/// First tag of the statistics-overlay band.  Owned here (not in control/)
/// so the MPI layer can classify traffic without depending on the overlay.
inline constexpr int kOverlayTagBase = 1'000'000'000;

/// Sentinel for "never happens" times.
inline constexpr sim::TimeNs kNever = sim::TimeNs{0x7fffffffffffffff};

/// Largest accepted `factor=`, and the cap on the product of overlapping
/// factors: a million-fold slowdown of any modelled delay still fits the
/// nanosecond clock.
inline constexpr double kMaxFactor = 1e6;

struct FaultAction {
  enum class Kind : std::uint8_t {
    kKillDaemon,   ///< the node's comm daemon stops serving at `at`
    kKillRank,     ///< the rank leaves the control-plane membership at `at`
    kDrop,         ///< eligible messages vanish in flight
    kDup,          ///< eligible messages are delivered twice
    kDelay,        ///< eligible messages take `factor` times as long
    kStall,        ///< messages touching `node` slow by `factor` in [at, until)
    kTearShard,    ///< spill `spill` of rank `rank`'s trace shard is cut at `keep`
    kFlapDaemon,   ///< daemon dead for `downtime` of every `period` in [at, until)
    kDegradeDaemon,///< daemon alive but `factor` times slower in [at, until)
    kStorm,        ///< svcapp bursts `sessions` extra sessions at `at`
  };

  Kind kind = Kind::kDrop;
  Channel channel = Channel::kDaemon;
  std::string job;              ///< kill-rank / tear-shard: job scope; empty = all jobs
  int node = -1;                ///< kill-daemon / stall target
  int rank = -1;                ///< kill-rank / tear-shard target
  int src = -1;                 ///< message source filter; -1 = any
  int dst = -1;                 ///< message destination filter; -1 = any
  sim::TimeNs at = 0;           ///< kill time / stall window start
  sim::TimeNs until = kNever;   ///< stall window end (exclusive)
  double probability = -1.0;    ///< hash-drawn eligibility when >= 0
  std::int64_t nth = -1;        ///< match only the nth eligible message
  std::int64_t skip = 0;        ///< window matching: first `skip` pass through
  std::int64_t count = -1;      ///< window matching: next `count` match
  double factor = 10.0;         ///< delay / stall / degrade multiplier
  std::uint64_t spill = 0;      ///< tear-shard: run index within the shard
  double keep = 0.5;            ///< tear-shard: fraction of run bytes persisted
  sim::TimeNs period = 0;       ///< flap-daemon: kill/restart cadence
  sim::TimeNs downtime = 0;     ///< flap-daemon: dead span at each period start
  std::int64_t sessions = 0;    ///< storm: sessions burst-admitted at `at`
  std::string where;            ///< origin:line the action was parsed from
};

/// One job a plan's rank-scoped verbs may address (check_targets).
struct JobExtent {
  std::string name;
  int ranks = 0;
};

struct FaultPlan {
  std::uint64_t seed = 0x5eedULL;
  std::vector<FaultAction> actions;

  bool empty() const { return actions.empty(); }

  /// Parse the text format above; throws dyntrace::Error (naming `origin`
  /// and the line) on unknown verbs, bad values, or missing selectors.
  static FaultPlan parse(std::string_view text, const std::string& origin = "<plan>");

  /// Load a plan file from disk.
  static FaultPlan load(const std::string& path);

  /// Range-check every node= and rank= once the plan meets its machine:
  /// nodes must lie in [0, nodes); a job-scoped rank must exist in its job,
  /// an unscoped one in at least one of `jobs`.  Actions naming a job not
  /// in `jobs` are inert and go unchecked.  Throws dyntrace::Error naming
  /// the action's origin:line.
  void check_targets(int nodes, const std::vector<JobExtent>& jobs) const;
};

}  // namespace dyntrace::fault
