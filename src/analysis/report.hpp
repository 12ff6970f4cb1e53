// Job-level summary reports derived from a trace: communication matrix,
// load-balance metrics, and a combined text report -- the numbers the VGV
// statistics displays present.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/profile.hpp"
#include "control/controller.hpp"
#include "dpcl/health.hpp"
#include "image/symbols.hpp"
#include "vt/trace_store.hpp"

namespace dyntrace::analysis {

/// Bytes sent from each rank to each peer (from kMsgSend events).
struct CommMatrix {
  int nprocs = 0;
  std::vector<std::int64_t> bytes;  ///< row-major [src * nprocs + dst]

  std::int64_t at(int src, int dst) const;
  std::int64_t total() const;
  /// Render as an aligned table (KiB, one row per source rank).
  std::string render() const;
};

CommMatrix communication_matrix(const vt::TraceStore& store);

/// Per-process busy time (inside any traced function or MPI call) and the
/// imbalance metric max/mean, as load-balance displays report it.
struct LoadBalance {
  std::vector<double> busy_seconds;  ///< indexed by pid
  double mean = 0;
  double max = 0;
  double min = 0;
  /// max/mean; 1.0 = perfectly balanced.  0 when no activity was traced.
  double imbalance = 0;
};

LoadBalance load_balance(const vt::TraceStore& store);
/// The same, from profiles already replayed.
LoadBalance load_balance(const TraceAnalyzer& analyzer);

/// Per-parallel-region statistics (the GuideView half of VGV): how often a
/// region ran, the master's total span inside it, and the worker span --
/// their gap exposes fork/join overhead and imbalance.
struct OmpRegionProfile {
  std::int32_t region_id = 0;
  std::uint64_t executions = 0;
  sim::TimeNs master_span = 0;   ///< sum over executions of (end - begin)
  sim::TimeNs worker_span = 0;   ///< sum over worker begin/end pairs
  int max_team_size = 0;         ///< largest team observed (from the fork event)
};

/// Render as a table ("GuideView regions" display).
std::string render_omp_regions(const std::vector<OmpRegionProfile>& profiles);

/// Combined human-readable report (profile top-N + matrix + balance), from
/// one replay of each process's shard.
std::string summary_report(const vt::TraceStore& store, const image::SymbolTable* symbols,
                           std::size_t top_n = 10);

/// Render a budget controller's decision trail: one row per safe point that
/// changed the configuration (measured vs projected overhead against the
/// budget, and which groups were switched), plus a one-line summary of safe
/// points where the controller left the configuration alone.
std::string render_decision_log(const control::DecisionLog& log);

/// Render the dpcl health tracker's per-node gray-failure view: one row per
/// tracked node with its EWMA score, breaker state, and attempt/transition
/// counters (DESIGN.md §14).  Empty tracker -> a one-line "no nodes" note.
std::string render_health(const dpcl::HealthTracker& health);

}  // namespace dyntrace::analysis
