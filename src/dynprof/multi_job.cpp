#include "dynprof/multi_job.hpp"

#include <algorithm>
#include <set>

#include "fault/injector.hpp"
#include "support/common.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace dyntrace::dynprof {

MultiJobLaunch::MultiJobLaunch(MultiJobOptions options) : options_(std::move(options)) {
  DT_EXPECT(!options_.jobs.empty(), "a multi-job launch needs at least one job");
  std::set<std::string> names;
  std::vector<JobFootprint> footprints;
  std::vector<fault::JobExtent> extents;
  for (auto& job : options_.jobs) {
    DT_EXPECT(job.app != nullptr, "every multi-job entry needs an application");
    if (job.name.empty()) job.name = job.app->name;
    DT_EXPECT(names.insert(job.name).second, "job name '", job.name,
              "' used twice (give jobs unique names)");
    footprints.push_back(job_footprint(*job.app, job.params));
    extents.push_back({job.name, footprints.back().processes});
  }
  substrate_ = std::make_unique<Substrate>(options_.machine.value_or(machine::ibm_power3_sp()),
                                           /*noise_seed=*/options_.seed ^ 0x9e3779b9,
                                           options_.telemetry_level, options_.fault.get(),
                                           extents);
  machine::Cluster& cluster = substrate_->cluster;

  // Register every job's footprint first: tenant counts feed the contention
  // model, and register_job validates spans against the machine.
  int last_app_node = 0;
  for (std::size_t j = 0; j < options_.jobs.size(); ++j) {
    const auto& job = options_.jobs[j];
    last_app_node = std::max(
        last_app_node, cluster.register_job(job.name, job.first_node, footprints[j].processes,
                                            footprints[j].cpus_per_process, job.first_cpu));
  }

  // Every Dynamic/Adaptive job gets its own login node above the union
  // span, so tool traffic never contends with another job's CPU slots.
  int next_tool_node = last_app_node + 1;
  std::vector<int> tool_nodes(options_.jobs.size(), -1);
  for (std::size_t j = 0; j < options_.jobs.size(); ++j) {
    const Policy p = options_.jobs[j].policy;
    if (p != Policy::kDynamic && p != Policy::kAdaptive) continue;
    DT_EXPECT(next_tool_node < cluster.spec().nodes, "machine ", cluster.spec().name,
              " has no free node for job '", options_.jobs[j].name, "'s tool (",
              cluster.spec().nodes, " nodes)");
    tool_nodes[j] = next_tool_node++;
  }

  // Build every job's Launch first, then arm the tool jobs in job order.
  Rng seed_rng(options_.seed ^ 0x6a6f62);  // "job"
  for (std::size_t j = 0; j < options_.jobs.size(); ++j) {
    const auto& job = options_.jobs[j];
    Launch::Options lo;
    lo.app = job.app;
    lo.params = job.params;
    if (lo.params.seed == 42) lo.params.seed = seed_rng.next_u64();  // per-job default
    lo.policy = job.policy;
    lo.first_app_node = job.first_node;
    lo.first_app_cpu = job.first_cpu;
    lo.job_name = job.name;
    lo.trace_spill_bytes = options_.trace_spill_bytes;
    lo.cluster = &cluster;
    Arming arming;
    arming.script = job.script;
    arming.tool_node = tool_nodes[j];
    arming.tool_pid = 100000 + static_cast<int>(j) * 1000;
    runs_.push_back(std::make_unique<PolicyRun>(std::move(lo), std::move(arming)));
  }
  for (auto& run : runs_) run->arm();
}

MultiJobLaunch::~MultiJobLaunch() = default;

MultiJobResult MultiJobLaunch::run_to_completion() {
  DT_EXPECT(!ran_, "run_to_completion called twice");
  ran_ = true;
  // Tools queue their scripts before the static jobs start, each in job
  // order: the event order the combined digest pins.
  for (auto& run : runs_) {
    if (run->tool() != nullptr) run->start();
  }
  for (auto& run : runs_) {
    if (run->tool() == nullptr) run->start();
  }
  substrate_->engine.run();

  MultiJobResult result;
  result.combined_digest = 0x6d756c74696a6f62ULL;  // "multijob"
  sim::TimeNs end = 0;
  for (auto& run : runs_) {
    end = std::max(end, run->launch().job().finish_time());
  }
  for (auto& run : runs_) {
    const PolicyResult r = run->finish();
    MultiJobResult::JobResult jr;
    jr.job = run->launch().job_name();
    jr.policy = r.policy;
    jr.nprocs = run->launch().process_count();
    jr.app_seconds = r.app_seconds;
    jr.total_seconds = r.total_seconds;
    jr.create_instrument_seconds = r.create_instrument_seconds;
    jr.trace_events = r.trace_events;
    jr.trace_digest = r.trace_digest;
    jr.stats_digest = r.stats_digest;
    jr.lost_ranks = substrate_->cluster.fault_injector().dead_ranks(end, jr.job);
    result.combined_digest = splitmix_fold(result.combined_digest, jr.trace_digest);
    result.combined_digest = splitmix_fold(result.combined_digest, jr.stats_digest);
    result.jobs.push_back(std::move(jr));
  }
  return result;
}

}  // namespace dyntrace::dynprof
