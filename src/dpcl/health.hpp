// Per-node health scoring and circuit breaking for the DPCL request path
// (gray-failure containment, DESIGN.md §14).
//
// Crash faults are easy: a dead daemon misses every deadline and is
// abandoned after max retries.  Gray failures -- a daemon that flaps, or
// answers 1000x slower than it should -- are the common case at scale, and
// waiting out the full deadline x retry schedule for such a node on *every*
// broadcast drags the whole batch down.  The HealthTracker watches every
// request attempt (ack latency or deadline miss) and keeps, per node:
//
//   * an EWMA health score in [0, 1]: an on-time ack contributes
//     min(1, latency_ref / latency), a miss contributes 0;
//   * a consecutive-miss counter;
//   * a three-state circuit breaker:
//
//         closed --(misses >= threshold or score < floor)--> open
//         open --(cooldown elapsed, next request)--> half-open
//         half-open --(probe acked)--> closed
//         half-open --(probe missed)--> open
//
// While open, steady-state broadcasts *quarantine* the node: the request is
// skipped in O(1) and the caller records the node as degraded (the
// Dynamic→Subset→None ladder) instead of stalling its batch for up to
// deadline x (retries + 1).  Once the cooldown elapses the next broadcast
// sends a single-attempt half-open probe; an ack re-admits the node.
//
// The request path is sequential per application, so the tracker needs no
// locks and its decisions are a pure function of the deterministic request
// history.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "machine/spec.hpp"
#include "sim/time.hpp"

namespace dyntrace::fault {
class RunReport;
}

namespace dyntrace::dpcl {

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* to_string(BreakerState state);

class HealthTracker {
 public:
  /// How a broadcast should treat a node right now.
  enum class Admit : std::uint8_t {
    kNormal,  ///< closed: full deadline + retry protocol
    kProbe,   ///< half-open: single-attempt probe, no retries
    kSkip,    ///< open: quarantine the node, do not send
  };

  struct NodeHealth {
    double score = 1.0;
    int consecutive_misses = 0;
    BreakerState state = BreakerState::kClosed;
    sim::TimeNs opened_at = 0;
    std::uint64_t acks = 0;
    std::uint64_t misses = 0;
    std::uint64_t probes = 0;
    std::uint64_t skips = 0;
    std::uint64_t opens = 0;
    std::uint64_t closes = 0;
  };

  /// `report` may be null; when set, breaker transitions are appended to it
  /// ("breaker-open" / "breaker-probe" / "breaker-close" entries).
  HealthTracker(const machine::FaultTolerance& policy, fault::RunReport* report);

  /// Record the outcome of one request attempt.  `latency` is send-to-ack
  /// (ignored for misses).  Drives score, miss count, and -- when the
  /// attempt is a half-open probe -- the open/closed transition.
  void record_attempt(int node, bool acked, sim::TimeNs latency, sim::TimeNs now);

  /// Gate one broadcast's request to `node`.  May transition the breaker
  /// open -> half-open when the cooldown has elapsed; records skips.
  Admit admit(int node, sim::TimeNs now);

  double score(int node) const;
  BreakerState state(int node) const;
  const NodeHealth& node_health(int node) const;
  /// All tracked nodes, ascending (for reporting).
  std::vector<int> tracked_nodes() const;

 private:
  void transition(NodeHealth& h, int node, BreakerState to, sim::TimeNs now);

  machine::FaultTolerance policy_;
  fault::RunReport* report_;
  std::map<int, NodeHealth> nodes_;
};

}  // namespace dyntrace::dpcl
