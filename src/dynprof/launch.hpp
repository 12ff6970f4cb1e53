// Launch: assembles one VGV application run on the simulated cluster.
//
// A Launch owns the whole stack for a single experiment: its Substrate
// (telemetry registry, engine, cluster), MPI world (or OpenMP runtime),
// parallel job, per-process VT libraries with their MPI wrappers / OpenMP
// listeners, and per-process AppContexts.  The jobs of a multi-job run
// borrow one MultiJobLaunch's cluster instead (DESIGN.md §15).  The
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
struct JobExtent;
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

/// What one job occupies: its processes and the CPUs each takes (one per
/// MPI rank, threads_per_rank per mixed-mode rank; an OpenMP application is
/// one process of params.nprocs CPUs).  Throws dyntrace::Error on
/// parameters the application does not run with.
struct JobFootprint {
  int processes = 1;
  int cpus_per_process = 1;
};
JobFootprint job_footprint(const asci::AppSpec& app, const asci::AppParams& params);

/// What a run executes on: a telemetry registry (telemetry::current() on
/// the constructing thread while it lives), the engine and the cluster,
/// running the fault plan's injector (not owned; null = none) once its
/// targets are checked against `jobs`.  A Launch owns one unless it borrows
/// a cluster; a MultiJobLaunch owns one for all its jobs.
struct Substrate {
  Substrate(machine::MachineSpec spec, std::uint64_t noise_seed, telemetry::Level level,
            fault::FaultInjector* fault, const std::vector<fault::JobExtent>& jobs);

  // The registry outlives everything below it: spans emitted while ~Engine
  // destroys surviving coroutine frames must still find it alive.
  telemetry::Registry telemetry;
  telemetry::ScopedRegistry installed;
  sim::Engine engine;
  machine::Cluster cluster;
};

class Launch {
 public:
  struct Options {
    const asci::AppSpec* app = nullptr;
    asci::AppParams params;
    Policy policy = Policy::kNone;
    /// Default: machine::machine_for_cpus -- the IBM Power3 SP, grown node
    /// for node when the application's CPUs do not fit.
    std::optional<machine::MachineSpec> machine;
    /// Arity of the control::StatsOverlay installed on every rank when
    /// params.confsync_statistics is on; 0 = linear gather to rank 0.
    int stats_overlay_arity = 4;
    /// Per-process trace-shard byte budget before sorted runs spill to
    /// disk (0 = keep shards fully in memory; see vt::ShardOptions).
    std::size_t trace_spill_bytes = 0;
    /// Spill directory for shard runs; empty = system temp directory.
    std::string trace_spill_dir;
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
    /// A cluster to run on instead of owning a Substrate (the jobs of a
    /// MultiJobLaunch share one; DESIGN.md §15).  It brings its engine, its
    /// fault injector and the telemetry registry its owner installed, so
    /// `machine` and `fault` stay unset and `telemetry_level` is unused.  It
    /// must outlive the Launch.  Null = own the substrate.
    machine::Cluster* cluster = nullptr;
    /// Must be 1.  Kept only for perfbench/driver.cpp; the next change to
    /// the benchmark removes it.
    int sim_threads = 1;
    /// Fault injector driving this run (DESIGN.md §9).  Null (the default)
    /// means no plan: the run uses the cluster's empty-plan injector, which
    /// fires nothing.
    std::shared_ptr<fault::FaultInjector> fault;
    /// Self-telemetry level for this run (DESIGN.md §12).  An owning
    /// Launch's registry is installed as telemetry::current() on the
    /// constructing thread for its whole lifetime, so every layer's hooks
    /// land in this run's counters.  A run lives on one thread: construct,
    /// run and destroy a Launch on the same thread.
    telemetry::Level telemetry_level = telemetry::default_level();
  };

  explicit Launch(Options options);
  ~Launch();
  Launch(const Launch&) = delete;
  Launch& operator=(const Launch&) = delete;

  /// The engine the whole run executes on.
  sim::Engine& engine() { return cluster_->engine(); }
  /// Aliases of engine() and engine().run(), kept only for
  /// perfbench/driver.cpp; the next change to the benchmark removes them.
  sim::Engine& parallel_engine() { return engine(); }
  void run_engine() { engine().run(); }
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
  /// This run's telemetry registry: telemetry::current() on the run's
  /// thread while the Launch is alive.
  telemetry::Registry& telemetry_registry() { return *telemetry_; }
  const telemetry::Registry& telemetry_registry() const { return *telemetry_; }
  /// The run's fault injector: the plan's, or the cluster's empty-plan
  /// injector when there is none.  Never null.
  fault::FaultInjector* fault_injector() const { return &cluster_->fault_injector(); }
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

  /// Collect the result after the engine has been run externally.  Also
  /// adds the VT libraries' event counts to the run's telemetry
  /// (vt.events_recorded, vt.synthetic_pairs).
  Result collect_result() const;

 private:
  sim::Coro<void> rank_main(int pid, proc::SimThread& thread);

  Options options_;
  JobFootprint footprint_;
  // The substrate must outlive (i.e. be declared before) everything the
  // coroutine frames its engine owns may reference during teardown.  Null
  // with a borrowed cluster, whose owner outlives the Launch by contract.
  std::unique_ptr<Substrate> substrate_;
  machine::Cluster* cluster_;
  telemetry::Registry* telemetry_;
  std::shared_ptr<vt::TraceStore> store_;
  std::shared_ptr<vt::StagedUpdate> staged_;
  std::unique_ptr<mpi::World> world_;
  std::unique_ptr<proc::ParallelJob> job_;
  std::vector<std::unique_ptr<omp::OmpRuntime>> omp_runtimes_;
  std::vector<std::unique_ptr<vt::VtLib>> vts_;
  std::vector<std::unique_ptr<vt::VtMpiInterpose>> interposes_;
  std::vector<std::unique_ptr<vt::VtOmpListener>> omp_listeners_;
  std::vector<std::unique_ptr<asci::AppContext>> contexts_;

  image::FunctionId main_fn_ = image::kInvalidFunction;
  image::FunctionId init_fn_ = image::kInvalidFunction;      ///< MPI_Init, or VT_init for OpenMP
  image::FunctionId finalize_fn_ = image::kInvalidFunction;  ///< MPI_Finalize (MPI apps)
  // What collect_result() has already added to the registry.
  mutable std::uint64_t exported_recorded_ = 0;
  mutable std::uint64_t exported_synthetic_pairs_ = 0;

  int init_done_count_ = 0;
  sim::TimeNs init_latest_ = 0;   ///< max init time seen so far
  sim::TimeNs init_complete_ = -1;
  sim::Trigger init_trigger_;
};

}  // namespace dyntrace::dynprof
