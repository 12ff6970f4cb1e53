// The evaluation harness: run one application under one instrumentation
// policy (paper Table 3) and measure what Figures 7 and 9 plot.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "dynprof/launch.hpp"
#include "dynprof/tool.hpp"

namespace dyntrace::dynprof {

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

/// What a Dynamic/Adaptive policy run needs beyond its Launch::Options;
/// static policies ignore it.
struct Arming {
  /// The dynprof command script; empty = "insert-file subset" (Dynamic) or
  /// "insert-file all" (Adaptive), then start and quit.
  std::string script;
  /// Adaptive: the budget controller's configuration.
  control::ControllerOptions controller;
  /// The tool's node and simulated pid (see DynprofTool::Options).
  int tool_node = -1;
  int tool_pid = 100000;
};

/// One application run under one policy: the one place a Launch is armed
/// for its policy.  A Dynamic or Adaptive run gets a dynprof tool with the
/// command files `subset` (the app's dynamic_list) and `all` (every
/// non-runtime function); an Adaptive run also gets statistics at every
/// safe point (every 36th offer when params.confsync_interval is 0; the
/// Launch reduces them through its overlay), a probe-edit applier on every
/// rank and the budget controller.
///
/// Two phases, so a multi-job scenario can build every Launch before it
/// arms any job: the constructor builds the Launch and arm() builds the
/// tool and control plane; start() queues the tool's script (a static job
/// starts directly), the caller runs the engine, and finish() collects the
/// result.  run() does all of it for a run that owns its engine.  A caller
/// that starts the tool another way (the control service's
/// start_service()) calls arm() and not start().
class PolicyRun {
 public:
  explicit PolicyRun(Launch::Options options, Arming arming = {});
  ~PolicyRun();
  PolicyRun(const PolicyRun&) = delete;
  PolicyRun& operator=(const PolicyRun&) = delete;

  /// Build the tool (and the Adaptive control plane).  Call before
  /// Engine::run(); a second call does nothing.
  void arm();
  /// Arm, then queue the tool's script or start a static-policy job.  Call
  /// once.
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
  std::unique_ptr<control::BudgetController> controller_;
  bool armed_ = false;
};

/// Run one (app, policy, nprocs) cell of Figure 7.
PolicyResult run_policy(Launch::Options options, Arming arming = {});

/// The processor counts evaluated for an app in the paper (§4.2): MPI apps
/// 1..64 (Sweep3d from 2), Umt98 1..8.
std::vector<int> cpu_counts_for(const asci::AppSpec& app);

}  // namespace dyntrace::dynprof
