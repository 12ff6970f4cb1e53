#include "dynprof/multi_job.hpp"

#include <algorithm>

#include "control/controller.hpp"
#include "control/overlay.hpp"
#include "fault/injector.hpp"
#include "guide/compiler.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"

namespace dyntrace::dynprof {

namespace {

constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return SplitMix64(h ^ v).next();
}

/// Nodes a job's placement spans (same arithmetic as Cluster::place_block).
int nodes_for(const machine::MachineSpec& spec, const MultiJobOptions::Job& job) {
  const asci::AppSpec& app = *job.app;
  const int nprocs = app.model == asci::AppSpec::Model::kOpenMP ? 1 : job.params.nprocs;
  const int cpus_per_proc = app.model == asci::AppSpec::Model::kOpenMP
                                ? job.params.nprocs
                                : job.params.threads_per_rank;
  const int units_per_node = (spec.cpus_per_node - job.first_cpu) / cpus_per_proc;
  DT_EXPECT(units_per_node >= 1, "job '", job.name, "': a ", cpus_per_proc,
            "-cpu rank at offset ", job.first_cpu, " does not fit on a ",
            spec.cpus_per_node, "-cpu node");
  return (nprocs + units_per_node - 1) / units_per_node;
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
    cluster_->set_fault_injector(options_.fault.get());
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
    const int node_count = nodes_for(cluster_->spec(), job);
    const int cpus_per_proc = job.app->model == asci::AppSpec::Model::kOpenMP
                                  ? job.params.nprocs
                                  : job.params.threads_per_rank;
    const int units_per_node =
        (cluster_->spec().cpus_per_node - job.first_cpu) / cpus_per_proc;
    cluster_->register_job(machine::Cluster::JobSpan{
        job.name, job.first_node, node_count, job.first_cpu,
        units_per_node * cpus_per_proc});
    last_app_node = std::max(last_app_node, job.first_node + node_count - 1);
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

  Rng seed_rng(options_.seed ^ 0x6a6f62);  // "job"
  for (std::size_t j = 0; j < options_.jobs.size(); ++j) {
    const auto& job = options_.jobs[j];
    Launch::Options lo;
    lo.app = job.app;
    lo.params = job.params;
    if (lo.params.seed == 42) lo.params.seed = seed_rng.next_u64();  // per-job default
    if (job.policy == Policy::kAdaptive) {
      lo.params.confsync_interval = options_.confsync_interval;
      lo.params.confsync_statistics = true;
    }
    lo.policy = job.policy;
    lo.first_app_node = job.first_node;
    lo.first_app_cpu = job.first_cpu;
    lo.job_name = job.name;
    lo.trace_spill_bytes = options_.trace_spill_bytes;
    lo.trace_format = options_.trace_format;
    lo.fault = options_.fault;
    lo.shared_engine = &engine_;
    lo.shared_cluster = cluster_.get();
    lo.shared_telemetry = telemetry_.get();
    launches_.push_back(std::make_unique<Launch>(std::move(lo)));
  }

  for (std::size_t j = 0; j < options_.jobs.size(); ++j) {
    const auto& job = options_.jobs[j];
    Launch& launch = *launches_[j];
    if (job.policy != Policy::kDynamic && job.policy != Policy::kAdaptive) {
      tools_.push_back(nullptr);
      overlays_.push_back(nullptr);
      controllers_.push_back(nullptr);
      continue;
    }

    DynprofTool::Options to;
    to.tool_node = tool_nodes[j];
    to.tool_pid = 100000 + static_cast<int>(j) * 1000;
    std::shared_ptr<control::StatsOverlay> overlay;
    std::unique_ptr<control::BudgetController> controller;
    if (job.policy == Policy::kAdaptive) {
      std::vector<std::string> all_user;
      for (const auto& fn : job.app->symbols->all()) {
        if (!guide::is_runtime_module(fn.module)) all_user.push_back(fn.name);
      }
      to.command_files = {{"all.txt", std::move(all_user)}};
      if (options_.tree_arity > 0) {
        overlay = std::make_shared<control::StatsOverlay>(options_.tree_arity);
        overlay->prepare(launch.process_count());
        overlay->set_job(launch.job_name());
      }
      for (int pid = 0; pid < launch.process_count(); ++pid) {
        if (overlay) launch.vt(pid).set_stats_aggregator(overlay);
        control::install_probe_edit_applier(launch.vt(pid));
      }
      controller = std::make_unique<control::BudgetController>(control::ControllerOptions{});
      controller->attach(launch.vt(0), launch.staged());
    } else {
      to.command_files = {{"subset.txt", job.app->dynamic_list}};
    }
    auto tool = std::make_unique<DynprofTool>(launch, std::move(to));
    std::string script = job.script;
    if (script.empty()) {
      script = job.policy == Policy::kAdaptive ? "insert-file all.txt\nstart\nquit\n"
                                               : "insert-file subset.txt\nstart\nquit\n";
    }
    tool->run_script(parse_script(script));
    tools_.push_back(std::move(tool));
    overlays_.push_back(std::move(overlay));
    controllers_.push_back(std::move(controller));
  }
}

MultiJobLaunch::~MultiJobLaunch() = default;

MultiJobResult MultiJobLaunch::run_to_completion() {
  DT_EXPECT(!ran_, "run_to_completion called twice");
  ran_ = true;
  for (std::size_t j = 0; j < launches_.size(); ++j) {
    if (tools_[j] == nullptr) launches_[j]->start();  // tools start their own job
  }
  engine_.run();

  MultiJobResult result;
  result.combined_digest = 0x6d756c74696a6f62ULL;  // "multijob"
  sim::TimeNs end = 0;
  for (const auto& launch : launches_) {
    end = std::max(end, launch->job().finish_time());
  }
  for (std::size_t j = 0; j < launches_.size(); ++j) {
    Launch& launch = *launches_[j];
    if (tools_[j] != nullptr) {
      DT_ASSERT(tools_[j]->finished(), "job '", launch.job_name(),
                "'s dynprof tool did not finish");
    }
    const Launch::Result r = launch.collect_result();
    MultiJobResult::JobResult jr;
    jr.job = launch.job_name();
    jr.policy = options_.jobs[j].policy;
    jr.nprocs = launch.process_count();
    jr.app_seconds = r.app_seconds;
    jr.total_seconds = r.total_seconds;
    jr.trace_events = r.trace_events;
    if (tools_[j] != nullptr) {
      jr.create_instrument_seconds =
          sim::to_seconds(tools_[j]->create_and_instrument_time());
    }
    jr.trace_digest = launch.trace()->digest();
    jr.stats_digest = vt::stats_digest(launch.vt(0).statistics());
    if (options_.fault != nullptr) {
      jr.lost_ranks = options_.fault->dead_ranks(end, jr.job);
    }
    result.combined_digest = fold(result.combined_digest, jr.trace_digest);
    result.combined_digest = fold(result.combined_digest, jr.stats_digest);
    result.jobs.push_back(std::move(jr));
  }
  return result;
}

}  // namespace dyntrace::dynprof
