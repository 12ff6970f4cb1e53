// The evaluation harness: run one application under one instrumentation
// policy (paper Table 3) and measure what Figures 7 and 9 plot.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "dynprof/launch.hpp"
#include "dynprof/tool.hpp"

namespace dyntrace::control {
class StatsOverlay;
}  // namespace dyntrace::control

namespace dyntrace::dynprof {

struct RunConfig {
  const asci::AppSpec* app = nullptr;
  Policy policy = Policy::kNone;
  int nprocs = 1;
  double problem_scale = 1.0;
  std::uint64_t seed = 42;
  std::optional<machine::MachineSpec> machine;  ///< default: see Launch::Options
  /// Self-telemetry level for the run (DESIGN.md §12).  Telemetry never
  /// perturbs simulated results -- digests are identical at every level.
  telemetry::Level telemetry_level = telemetry::default_level();
  /// Trace-shard spill budget (see Launch::Options).  Spilling changes
  /// where records live only -- digests, statistics, and decision logs are
  /// bit-identical to the in-memory run.
  std::size_t trace_spill_bytes = 0;
  /// Fault injector driving the run (see Launch::Options); null = no plan.
  std::shared_ptr<fault::FaultInjector> fault;

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

/// One application run under one policy: the one place a Launch is armed
/// for its policy.  A Dynamic or Adaptive run gets a dynprof tool with the
/// command files `subset` (the app's dynamic_list) and `all` (every
/// non-runtime function); an Adaptive run also gets the statistics
/// overlay, a probe-edit applier on every rank and the budget controller.
///
/// Two phases, so a multi-job scenario can build every Launch before it
/// arms any job: the constructor builds the Launch, arm() arms it and
/// queues the tool's script; start() starts a static job (a tool starts
/// its own), the caller runs the engine, and finish() collects the result.
/// run() does all of it for a run that owns its engine.
class PolicyRun {
 public:
  /// How a Dynamic/Adaptive run is armed; static policies ignore it.
  struct Arming {
    /// The dynprof command script; empty = "insert-file subset" (Dynamic)
    /// or "insert-file all" (Adaptive), then start and quit.
    std::string script;
    /// Adaptive: safe-point cadence (AppParams::confsync_interval).
    int confsync_interval = 36;
    /// Adaptive: statistics-overlay arity; 0 = legacy linear gather.
    int tree_arity = 4;
    /// Adaptive: the budget controller's configuration.
    control::ControllerOptions controller;
    /// The tool's node and simulated pid (see DynprofTool::Options).
    int tool_node = -1;
    int tool_pid = 100000;
  };

  PolicyRun(Launch::Options options, Arming arming);
  /// A run_policy cell; `script` as Arming::script.
  explicit PolicyRun(const RunConfig& config, std::string script = {});
  ~PolicyRun();
  PolicyRun(const PolicyRun&) = delete;
  PolicyRun& operator=(const PolicyRun&) = delete;

  /// Build the tool (and the Adaptive control plane) and queue its script.
  /// Call before Engine::run(); a second call does nothing.
  void arm();
  /// Arm, then start a static-policy job.
  void start();
  /// Collect the result once the engine has run.
  PolicyResult finish();
  /// start(), run the engine to completion, finish().
  PolicyResult run();

  Launch& launch() { return *launch_; }
  /// The run's dynprof tool; null for static policies or before arm().
  DynprofTool* tool() { return tool_.get(); }

 private:
  Arming arming_;
  std::unique_ptr<Launch> launch_;
  std::unique_ptr<DynprofTool> tool_;
  std::shared_ptr<control::StatsOverlay> overlay_;
  std::unique_ptr<control::BudgetController> controller_;
  bool armed_ = false;
};

/// Run one (app, policy, nprocs) cell of Figure 7.
PolicyResult run_policy(const RunConfig& config);

/// The processor counts evaluated for an app in the paper (§4.2): MPI apps
/// 1..64 (Sweep3d from 2), Umt98 1..8.
std::vector<int> cpu_counts_for(const asci::AppSpec& app);

}  // namespace dyntrace::dynprof
