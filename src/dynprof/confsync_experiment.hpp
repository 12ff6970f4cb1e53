// The §5 dynamic-control experiments behind Figure 8: measure VT_confsync
// latency on a P-rank MPI job, averaged over repetitions, in three
// variants: (1) no configuration changes, (2) with changes staged at rank
// 0's breakpoint, (3) with runtime statistics gathered and written.
#pragma once

#include <cstdint>

#include "machine/spec.hpp"

namespace dyntrace::dynprof {

struct ConfsyncExperimentConfig {
  int nprocs = 2;
  machine::MachineSpec machine;  ///< set from ibm_power3_sp()/ia32_linux_cluster()
  int repetitions = 16;          ///< "each data point is the average over 16 runs"
  bool with_changes = false;     ///< experiment 2: stage a filter update each sync
  bool write_statistics = false; ///< experiment 3: gather + dump per-function stats
  int symbol_count = 203;        ///< registered functions (affects statistics size)
  /// Statistics reduction shape: 0 = the paper's linear gather-to-rank-0;
  /// k >= 2 = the control plane's k-ary aggregation overlay.
  int tree_arity = 0;
  std::uint64_t seed = 42;
};

struct ConfsyncExperimentResult {
  double mean_seconds = 0;
  double min_seconds = 0;
  double max_seconds = 0;
};

ConfsyncExperimentResult run_confsync_experiment(const ConfsyncExperimentConfig& config);

}  // namespace dyntrace::dynprof
