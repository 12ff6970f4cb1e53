// Tree-based statistics aggregation overlay (the control plane's TBON).
//
// VT_confsync's legacy statistics path ships every rank's whole per-function
// table straight to rank 0, which formats and writes all P tables: O(P)
// messages into one endpoint and O(P * nfuncs) root work -- the climb of
// Figure 8(b).  The overlay arranges the ranks in a k-ary tree (children of
// rank r are k*r+1 .. k*r+k, the shape MRNet-style tool infrastructures
// use); every interior rank merges its children's records into its own
// before forwarding, so
//   * each endpoint handles at most k messages per sync,
//   * payloads carry only records with activity (sparse), and
//   * rank 0 writes one merged table instead of P.
// Statistics times are integral nanoseconds, so the tree-shaped merge is
// bit-identical to the linear fold (tests/control/test_overlay.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proc/process.hpp"
#include "vt/vtlib.hpp"

namespace dyntrace::control {

/// Topology of a k-ary reduction tree over ranks 0..size-1, rooted at 0.
struct ReductionPlan {
  int size = 1;
  int arity = 4;

  int parent(int rank) const { return rank == 0 ? -1 : (rank - 1) / arity; }
  std::vector<int> children(int rank) const;
  bool is_leaf(int rank) const { return children(rank).empty(); }
};

/// The overlay itself: one shared instance per job, installed on every
/// VtLib with set_stats_aggregator().  All ranks enter reduce() at the same
/// point of the VT_confsync protocol (the statistics phase), in lockstep.
class StatsOverlay : public vt::StatsAggregator {
 public:
  explicit StatsOverlay(int arity = 4);

  /// Pre-size the per-rank transport state for `size` ranks (reduce()
  /// otherwise sizes it lazily).  Idempotent.
  void prepare(int size);

  /// Name this overlay's job for job-scoped fault verbs (multi-job runs;
  /// kill-rank job=... then only silences this overlay when the names
  /// match).  Set before the run starts; empty = unscoped queries.
  void set_job(std::string name) { job_ = std::move(name); }

  /// Dead interior nodes are spliced out (their children re-parent to the
  /// first live ancestor), each child wait is bounded by
  /// fault.overlay_child_timeout, and the root reports partial
  /// participation instead of hanging.
  sim::Coro<void> reduce(proc::SimThread& thread, vt::VtLib& vt) override;

  int arity() const { return arity_; }
  /// Merged job-wide table from the most recent completed reduction.
  const std::vector<vt::FuncStats>& root_result() const { return root_result_; }
  /// Completed root reductions.
  std::uint64_t rounds() const { return rounds_; }

  /// Outcome of one degraded sync: which ranks'
  /// statistics never reached the root, and whether the configured quorum
  /// (machine fault.sync_quorum) was still met.
  struct SyncReport {
    std::uint64_t round = 0;
    std::vector<int> missing;  ///< ranks absent from the merged result, ascending
    bool quorum_met = true;
  };
  /// One entry per sync that completed without full participation.
  const std::vector<SyncReport>& partial_syncs() const { return partial_syncs_; }

 private:
  int arity_;
  std::string job_;  ///< fault-verb job scope (empty outside multi-job runs)
  // Host-side record transport: a sender publishes its merged table in its
  // slot *before* injecting the wire message, and the parent reads the slot
  // only after the (strictly later) delivery -- the message carries timing,
  // the slot carries the payload.
  std::vector<std::vector<vt::FuncStats>> slots_;
  std::vector<std::vector<int>> contrib_slots_;  ///< ranks merged into each slot
  std::vector<std::uint32_t> round_;  ///< per-rank sync counter (tag salt)
  std::vector<vt::FuncStats> root_result_;
  std::uint64_t rounds_ = 0;
  std::vector<SyncReport> partial_syncs_;
};

}  // namespace dyntrace::control
