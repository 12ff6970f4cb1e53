// The evaluation harness: run one application under one instrumentation
// policy (paper Table 3) and measure what Figures 7 and 9 plot.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "control/controller.hpp"
#include "dynprof/launch.hpp"
#include "dynprof/tool.hpp"

namespace dyntrace::dynprof {

struct RunConfig {
  const asci::AppSpec* app = nullptr;
  Policy policy = Policy::kNone;
  int nprocs = 1;
  double problem_scale = 1.0;
  std::uint64_t seed = 42;
  std::optional<machine::MachineSpec> machine;  ///< default IBM Power3 SP
  /// Self-telemetry level for the run (DESIGN.md §12).  Telemetry never
  /// perturbs simulated results -- digests are identical at every level.
  telemetry::Level telemetry_level = telemetry::default_level();
  /// Trace-shard spill budget and run encoding (see Launch::Options).  The
  /// format changes bytes on disk only -- digests, statistics, and decision
  /// logs are bit-identical between v1 and v2.
  std::size_t trace_spill_bytes = 0;
  vt::TraceFormat trace_format = vt::TraceFormat::kV2;
  /// Capture the run's telemetry artifacts after completion (set by the CLI
  /// when --telemetry-stats/--telemetry-trace ask for files).
  std::function<void(const telemetry::Registry&)> telemetry_sink;

  // --- Policy::kAdaptive only ----------------------------------------------
  /// Budget controller configuration (see control::ControllerOptions).
  control::ControllerOptions controller;
  /// Safe-point cadence fed to AppParams::confsync_interval.
  int confsync_interval = 36;
  /// Statistics-reduction overlay arity; 0 = legacy linear gather.
  int tree_arity = 4;
};

struct PolicyResult {
  Policy policy = Policy::kNone;
  int nprocs = 1;
  /// Post-initialization main-computation time: the Figure 7 metric
  /// ("program times reported do not include the time used to create and
  /// insert the instrumentation", §4.2).
  double app_seconds = 0;
  double total_seconds = 0;
  /// dynprof create+instrument time (Figure 9); 0 for static policies.
  double create_instrument_seconds = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t filtered_events = 0;
  /// Safe points the job executed (Adaptive only; 0 otherwise).
  std::uint64_t confsyncs = 0;
  /// FNV-1a fingerprint of the full merged trace (and of rank 0's final
  /// statistics table): the bit-identity witness the determinism tests
  /// and the benches' run-to-run comparisons check.
  std::uint64_t trace_digest = 0;
  std::uint64_t stats_digest = 0;
  /// The controller's decision trail (Adaptive only; empty otherwise).
  control::DecisionLog decisions;
};

/// Run one (app, policy, nprocs) cell of Figure 7.
PolicyResult run_policy(const RunConfig& config);

/// The processor counts evaluated for an app in the paper (§4.2): MPI apps
/// 1..64 (Sweep3d from 2), Umt98 1..8.
std::vector<int> cpu_counts_for(const asci::AppSpec& app);

}  // namespace dyntrace::dynprof
