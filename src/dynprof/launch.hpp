// Launch: assembles one VGV application run on the simulated cluster.
//
// A Launch owns the whole stack for a single experiment: engine, cluster,
// MPI world (or OpenMP runtime), parallel job, per-process VT libraries with
// their MPI wrappers / OpenMP listeners, and per-process AppContexts.  The
// instrumentation policy (paper Table 3) selects static instrumentation and
// the VT configuration file:
//
//   Full     -- all subroutines statically instrumented, no config file
//   Full-Off -- statically instrumented, config deactivates everything
//   Subset   -- statically instrumented, config leaves the subset active
//   None     -- no subroutine instrumentation at all
//   Dynamic  -- no static instrumentation; dynprof patches probes in
//   Adaptive -- dynprof patches in full coverage; the control plane's
//               budget controller prunes it at VT_confsync safe points
//               (an extension beyond the paper's Table 3; see src/control)
//
// MPI tracing through the wrapper interface is on in every policy (the VT
// library is always linked in VGV).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asci/app.hpp"
#include "machine/cluster.hpp"
#include "mpi/world.hpp"
#include "omp/runtime.hpp"
#include "proc/job.hpp"
#include "sim/engine.hpp"
#include "telemetry/registry.hpp"
#include "vt/interpose.hpp"
#include "vt/trace_store.hpp"
#include "vt/vtlib.hpp"

namespace dyntrace::fault {
class FaultInjector;
}  // namespace dyntrace::fault

namespace dyntrace::dynprof {

enum class Policy : int { kFull, kFullOff, kSubset, kNone, kDynamic, kAdaptive };

const char* to_string(Policy policy);
Policy policy_from_string(const std::string& name);

/// Table 3 descriptions, generated from the implementation.
struct PolicyInfo {
  Policy policy;
  const char* name;
  const char* description;
};
const std::vector<PolicyInfo>& policy_table();

/// The policies evaluated for an app (Sweep3d has no Subset run, §4.3).
std::vector<Policy> policies_for(const asci::AppSpec& app);

class Launch {
 public:
  struct Options {
    const asci::AppSpec* app = nullptr;
    asci::AppParams params;
    Policy policy = Policy::kNone;
    std::optional<machine::MachineSpec> machine;  ///< default: IBM Power3 SP
    std::size_t vt_buffer_records = 16384;
    /// Per-process trace-shard byte budget before sorted runs spill to
    /// disk (0 = keep shards fully in memory; see vt::ShardOptions).
    std::size_t trace_spill_bytes = 0;
    /// Spill directory for shard runs; empty = system temp directory.
    std::string trace_spill_dir;
    /// On-disk encoding for spilled runs (and the write_binary default):
    /// v2 delta blocks by default, v1 fixed records for migration.
    vt::TraceFormat trace_format = vt::TraceFormat::kV2;
    /// First node used for application processes (tool daemons etc. can
    /// use the nodes above the application's).
    int first_app_node = 0;
    /// First CPU the application occupies on each of its nodes.  Jobs that
    /// share physical nodes in a multi-job run take disjoint CPU ranges
    /// (DESIGN.md §15); 0 = start at the node's first CPU.
    int first_app_cpu = 0;
    /// Name job-scoped fault verbs (kill-rank job=..., tear-shard job=...)
    /// match this run by; defaults to the app name.  Multi-job scenarios
    /// give every job a unique name.
    std::string job_name;
    /// Shared-substrate mode (multi-job runs; DESIGN.md §15): borrow an
    /// existing engine + cluster instead of owning them.  Both must outlive
    /// the Launch.  Null = classic single-job mode.
    sim::Engine* shared_engine = nullptr;
    machine::Cluster* shared_cluster = nullptr;
    /// Shared telemetry registry for multi-job runs: the Launch then skips
    /// creating and installing its own, so all jobs' hooks land in the
    /// scenario-wide registry the caller installed.  Requires shared_engine.
    telemetry::Registry* shared_telemetry = nullptr;
    /// Standard deviation of per-process clock offsets (0 = perfect global
    /// clock).  Rank 0 is always the anchor; see analysis/clock_sync.hpp
    /// for the postmortem correction.
    sim::TimeNs clock_skew_stddev = 0;
    /// Must be 1.  Kept only for perfbench/driver.cpp; the next change to
    /// the benchmark removes it.
    int sim_threads = 1;
    /// Fault injector driving this run (DESIGN.md §9).  Null (the default)
    /// keeps every layer on its legacy code path -- runs without a plan are
    /// bit-identical to a build without the fault harness.
    std::shared_ptr<fault::FaultInjector> fault;
    /// Self-telemetry level for this run (DESIGN.md §12).  The Launch owns
    /// a private registry installed as telemetry::current() for its whole
    /// lifetime, so every layer's hooks land in this run's counters.
    telemetry::Level telemetry_level = telemetry::default_level();
  };

  explicit Launch(Options options);
  ~Launch();
  Launch(const Launch&) = delete;
  Launch& operator=(const Launch&) = delete;

  /// The engine the whole run executes on.
  sim::Engine& engine() { return *engine_; }
  /// Aliases of engine() and engine().run(), kept only for
  /// perfbench/driver.cpp; the next change to the benchmark removes them.
  sim::Engine& parallel_engine() { return *engine_; }
  void run_engine() { engine_->run(); }
  machine::Cluster& cluster() { return *cluster_; }
  proc::ParallelJob& job() { return *job_; }
  mpi::World* world() { return world_.get(); }  ///< null for pure OpenMP apps
  /// Process 0's OpenMP runtime; null for pure MPI apps.
  omp::OmpRuntime* omp_runtime() {
    return omp_runtimes_.empty() ? nullptr : omp_runtimes_.front().get();
  }
  /// Per-rank team (kMixed apps); null for pure MPI apps.
  omp::OmpRuntime* omp_runtime(int pid) {
    return static_cast<std::size_t>(pid) < omp_runtimes_.size()
               ? omp_runtimes_[static_cast<std::size_t>(pid)].get()
               : nullptr;
  }
  vt::VtLib& vt(int pid) { return *vts_[static_cast<std::size_t>(pid)]; }
  asci::AppContext& context(int pid) { return *contexts_[static_cast<std::size_t>(pid)]; }
  std::shared_ptr<vt::TraceStore> trace() { return store_; }
  std::shared_ptr<vt::StagedUpdate> staged() { return staged_; }
  /// This run's telemetry registry (installed as telemetry::current() while
  /// the Launch is alive).
  telemetry::Registry& telemetry_registry() { return *telemetry_; }
  const telemetry::Registry& telemetry_registry() const { return *telemetry_; }
  /// The run's fault injector; null for healthy runs.
  fault::FaultInjector* fault_injector() const { return options_.fault.get(); }
  const Options& options() const { return options_; }
  /// The (resolved) job name fault plans scope job-local verbs by.
  const std::string& job_name() const { return options_.job_name; }
  int process_count() const { return static_cast<int>(job_->size()); }

  /// Start the application (static policies; dynprof drives this itself for
  /// the Dynamic policy).  Pass the calling simulated thread when starting
  /// mid-run (see ParallelJob::start).
  void start(proc::SimThread* origin = nullptr) { job_->start(origin); }

  /// Simulation time when the last rank finished MPI_Init/VT_init (i.e.
  /// when the main computation begins, after any dynamic-instrumentation
  /// stall); -1 before that point.
  sim::TimeNs init_complete_time() const { return init_complete_; }

  /// Fires when every rank has completed initialization (what
  /// init_complete_time() records); tool-side controllers wait on this.
  sim::Trigger& init_complete_trigger() { return init_trigger_; }

  struct Result {
    double total_seconds = 0;  ///< job start -> last process exit
    double app_seconds = 0;    ///< post-initialization main computation (Fig. 7 metric)
    std::uint64_t trace_events = 0;     ///< virtual events incl. aggregated calls
    std::uint64_t filtered_events = 0;  ///< probe executions filtered by the config table
  };

  /// Start + run the engine to completion and collect the result (static
  /// policies only; Dynamic runs go through DynprofTool).
  Result run_to_completion();

  /// Collect the result after the engine has been run externally.
  Result collect_result() const;

 private:
  sim::Coro<void> rank_main(int pid, proc::SimThread& thread);

  Options options_;
  // The registry outlives everything below it: spans emitted while ~Engine
  // destroys surviving coroutine frames must still find it alive.  In
  // shared-substrate mode the owned_ slots stay null and the raw pointers
  // alias the caller's objects (which outlive the Launch by contract).
  std::unique_ptr<telemetry::Registry> owned_telemetry_;
  telemetry::Registry* telemetry_ = nullptr;
  std::optional<telemetry::ScopedRegistry> scoped_registry_;
  // The engine must outlive (i.e. be declared before) everything the
  // coroutine frames it owns may reference during teardown.
  std::unique_ptr<sim::Engine> owned_engine_;
  sim::Engine* engine_ = nullptr;
  std::unique_ptr<machine::Cluster> owned_cluster_;
  machine::Cluster* cluster_ = nullptr;
  std::shared_ptr<vt::TraceStore> store_;
  std::shared_ptr<vt::StagedUpdate> staged_;
  std::unique_ptr<mpi::World> world_;
  std::unique_ptr<proc::ParallelJob> job_;
  std::vector<std::unique_ptr<omp::OmpRuntime>> omp_runtimes_;
  std::vector<std::unique_ptr<vt::VtLib>> vts_;
  std::vector<std::unique_ptr<vt::VtMpiInterpose>> interposes_;
  std::vector<std::unique_ptr<vt::VtOmpListener>> omp_listeners_;
  std::vector<std::unique_ptr<asci::AppContext>> contexts_;

  int init_done_count_ = 0;
  sim::TimeNs init_latest_ = 0;   ///< max init time seen so far
  sim::TimeNs init_complete_ = -1;
  sim::Trigger init_trigger_;
};

}  // namespace dyntrace::dynprof
