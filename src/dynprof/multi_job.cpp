#include "dynprof/multi_job.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"

namespace dyntrace::dynprof {

namespace {

constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return SplitMix64(h ^ v).next();
}

/// The node span and per-node CPUs a job's placement takes (same
/// arithmetic as Cluster::place_block).
machine::Cluster::JobSpan span_for(const machine::MachineSpec& spec,
                                   const MultiJobOptions::Job& job) {
  const bool openmp = job.app->model == asci::AppSpec::Model::kOpenMP;
  const int nprocs = openmp ? 1 : job.params.nprocs;
  const int cpus_per_proc = openmp ? job.params.nprocs : job.params.threads_per_rank;
  const int units_per_node = (spec.cpus_per_node - job.first_cpu) / cpus_per_proc;
  DT_EXPECT(units_per_node >= 1, "job '", job.name, "': a ", cpus_per_proc,
            "-cpu rank at offset ", job.first_cpu, " does not fit on a ",
            spec.cpus_per_node, "-cpu node");
  return {job.name, job.first_node, (nprocs + units_per_node - 1) / units_per_node,
          job.first_cpu, units_per_node * cpus_per_proc};
}

}  // namespace

MultiJobLaunch::MultiJobLaunch(MultiJobOptions options)
    : options_(std::move(options)),
      telemetry_(std::make_unique<telemetry::Registry>(options_.telemetry_level)),
      scoped_registry_(std::in_place, *telemetry_) {
  DT_EXPECT(!options_.jobs.empty(), "a multi-job launch needs at least one job");
  for (auto& job : options_.jobs) {
    DT_EXPECT(job.app != nullptr, "every multi-job entry needs an application");
    if (job.name.empty()) job.name = job.app->name;
  }
  for (std::size_t a = 0; a < options_.jobs.size(); ++a) {
    for (std::size_t b = a + 1; b < options_.jobs.size(); ++b) {
      DT_EXPECT(options_.jobs[a].name != options_.jobs[b].name, "job name '",
                options_.jobs[a].name, "' used twice (give jobs unique names)");
    }
  }

  machine::MachineSpec spec =
      options_.machine.has_value() ? *options_.machine : machine::ibm_power3_sp();
  cluster_ = std::make_unique<machine::Cluster>(engine_, std::move(spec),
                                                /*noise_seed=*/options_.seed ^ 0x9e3779b9);
  if (options_.fault != nullptr) {
    cluster_->set_fault_injector(*options_.fault);
    std::vector<fault::JobExtent> extents;
    for (const auto& job : options_.jobs) {
      const bool openmp = job.app->model == asci::AppSpec::Model::kOpenMP;
      extents.push_back({job.name, openmp ? 1 : job.params.nprocs});
    }
    options_.fault->plan().check_targets(cluster_->spec().nodes, extents);
  }

  // Register every job's footprint first: tenant counts feed the contention
  // model, and register_job validates spans against the machine.
  int last_app_node = 0;
  for (const auto& job : options_.jobs) {
    const machine::Cluster::JobSpan span = span_for(cluster_->spec(), job);
    cluster_->register_job(span);
    last_app_node = std::max(last_app_node, span.first_node + span.node_count - 1);
  }

  // Every Dynamic/Adaptive job gets its own login node above the union
  // span, so tool traffic never contends with another job's CPU slots.
  int next_tool_node = last_app_node + 1;
  std::vector<int> tool_nodes(options_.jobs.size(), -1);
  for (std::size_t j = 0; j < options_.jobs.size(); ++j) {
    const Policy p = options_.jobs[j].policy;
    if (p != Policy::kDynamic && p != Policy::kAdaptive) continue;
    DT_EXPECT(next_tool_node < cluster_->spec().nodes, "machine ",
              cluster_->spec().name, " has no free node for job '",
              options_.jobs[j].name, "'s tool (", cluster_->spec().nodes, " nodes)");
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
    lo.fault = options_.fault;
    lo.shared_engine = &engine_;
    lo.shared_cluster = cluster_.get();
    lo.shared_telemetry = telemetry_.get();
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
  engine_.run();

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
    jr.lost_ranks = cluster_->fault_injector().dead_ranks(end, jr.job);
    result.combined_digest = fold(result.combined_digest, jr.trace_digest);
    result.combined_digest = fold(result.combined_digest, jr.stats_digest);
    result.jobs.push_back(std::move(jr));
  }
  return result;
}

}  // namespace dyntrace::dynprof
