// MultiJobLaunch: several independent application jobs sharing one
// simulated cluster (DESIGN.md §15).
//
// The paper evaluates one job at a time on a dedicated machine; real
// production machines run many jobs at once, often sharing physical nodes,
// and a tool infrastructure must hold up under that contention (compare
// ScALPEL's always-on monitoring of concurrent applications, PAPERS.md).
// A MultiJobLaunch owns the shared dynprof::Substrate -- one engine, one
// cluster, one telemetry registry, optionally one fault injector whose
// plan it checks against every job -- and builds a dynprof::Launch per job
// on the borrowed cluster:
//
//   * each job gets its own node span (first_node) and, on shared nodes,
//     its own CPU range (first_cpu), registered with the cluster from the
//     job's footprint so messages touching multi-tenant nodes pay the
//     tenancy surcharge;
//   * each Dynamic/Adaptive job gets its own DynprofTool instance on its
//     own login node above the union span -- independent tool sessions,
//     the multi-tool direction ROADMAP item 3 left open;
//   * fault plans apply across the whole machine: node-scoped verbs
//     (kill-daemon, stall, flap-daemon, degrade-daemon) hit every job on
//     the physical node, while rank-scoped verbs (kill-rank, tear-shard)
//     accept job=<name> to pick one job's rank space.
//
// Determinism: the whole scenario runs on one engine, so repeated runs are
// bit-identical like any single-job run (bench/multi_job.cpp gates on it).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dynprof/policy.hpp"

namespace dyntrace::dynprof {

struct MultiJobOptions {
  struct Job {
    const asci::AppSpec* app = nullptr;
    /// Unique job name (fault verbs and reports refer to it); defaults to
    /// the app name, which therefore must be unique across jobs.
    std::string name;
    asci::AppParams params;
    Policy policy = Policy::kDynamic;
    /// First node of the job's span.  Jobs may overlap node spans -- that
    /// is the point -- as long as their CPU ranges are disjoint.
    int first_node = 0;
    /// First CPU the job occupies on each of its nodes (jobs sharing a
    /// node take disjoint CPU ranges).
    int first_cpu = 0;
    /// Dynamic/Adaptive jobs: the dynprof command script.  Empty runs the
    /// plain insert-file/start/quit flow; set it to add mid-run inserts
    /// (what drives requests into a degraded daemon).
    std::string script;
  };

  std::vector<Job> jobs;
  std::optional<machine::MachineSpec> machine;  ///< default: IBM Power3 SP
  std::uint64_t seed = 42;
  std::shared_ptr<fault::FaultInjector> fault;
  telemetry::Level telemetry_level = telemetry::default_level();
  std::size_t trace_spill_bytes = 0;
};

struct MultiJobResult {
  struct JobResult {
    std::string job;
    Policy policy = Policy::kNone;
    int nprocs = 1;
    double app_seconds = 0;
    double total_seconds = 0;
    double create_instrument_seconds = 0;  ///< 0 for static policies
    std::uint64_t trace_events = 0;
    std::uint64_t trace_digest = 0;
    std::uint64_t stats_digest = 0;
    /// Job-local ranks dead at scenario end (job-scoped fault verbs).
    std::vector<int> lost_ranks;
  };

  std::vector<JobResult> jobs;
  /// FNV-1a fold of every job's trace + stats digest, in job order: the
  /// scenario-wide bit-identity witness for run-to-run comparisons.
  std::uint64_t combined_digest = 0;
};

class MultiJobLaunch {
 public:
  explicit MultiJobLaunch(MultiJobOptions options);
  ~MultiJobLaunch();
  MultiJobLaunch(const MultiJobLaunch&) = delete;
  MultiJobLaunch& operator=(const MultiJobLaunch&) = delete;

  machine::Cluster& cluster() { return substrate_->cluster; }
  std::size_t job_count() const { return runs_.size(); }
  Launch& launch(std::size_t job) { return runs_[job]->launch(); }
  /// The job's tool instance; null for static-policy jobs.
  DynprofTool* tool(std::size_t job) { return runs_[job]->tool(); }

  /// Start every job (static jobs directly, Dynamic/Adaptive through their
  /// tools), run the shared engine to completion, and collect per-job
  /// results.  Call once.
  MultiJobResult run_to_completion();

 private:
  MultiJobOptions options_;
  std::unique_ptr<Substrate> substrate_;
  std::vector<std::unique_ptr<PolicyRun>> runs_;
  bool ran_ = false;
};

}  // namespace dyntrace::dynprof
