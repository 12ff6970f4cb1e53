#include "dynprof/policy.hpp"

#include "control/overlay.hpp"
#include "guide/compiler.hpp"
#include "support/common.hpp"

namespace dyntrace::dynprof {

std::vector<int> cpu_counts_for(const asci::AppSpec& app) {
  std::vector<int> counts;
  for (std::int64_t p = 1; p <= app.max_procs; p *= 2) {
    if (p >= app.min_procs) counts.push_back(static_cast<int>(p));
  }
  return counts;
}

PolicyResult run_policy(const RunConfig& config) {
  DT_EXPECT(config.app != nullptr, "run_policy needs an application");

  Launch::Options options;
  options.app = config.app;
  options.params.nprocs = config.nprocs;
  options.params.problem_scale = config.problem_scale;
  options.params.seed = config.seed;
  if (config.policy == Policy::kAdaptive) {
    options.params.confsync_interval = config.confsync_interval;
    options.params.confsync_statistics = true;
  }
  options.policy = config.policy;
  options.machine = config.machine;
  options.telemetry_level = config.telemetry_level;
  options.trace_spill_bytes = config.trace_spill_bytes;
  Launch launch(std::move(options));

  PolicyResult result;
  result.policy = config.policy;
  result.nprocs = config.nprocs;

  if (config.policy == Policy::kAdaptive) {
    // Full dynamic coverage first (every user function gets probes), then
    // the controller earns the budget back at safe points.
    std::vector<std::string> all_user;
    for (const auto& fn : config.app->symbols->all()) {
      if (!guide::is_runtime_module(fn.module)) all_user.push_back(fn.name);
    }
    DynprofTool::Options tool_options;
    tool_options.command_files = {{"all.txt", all_user}};
    DynprofTool tool(launch, std::move(tool_options));

    std::shared_ptr<control::StatsOverlay> overlay;
    if (config.tree_arity > 0) {
      overlay = std::make_shared<control::StatsOverlay>(config.tree_arity);
      overlay->prepare(launch.process_count());
      overlay->set_job(launch.job_name());
    }
    for (int pid = 0; pid < launch.process_count(); ++pid) {
      if (overlay) launch.vt(pid).set_stats_aggregator(overlay);
      control::install_probe_edit_applier(launch.vt(pid));
    }
    control::BudgetController controller(config.controller);
    controller.attach(launch.vt(0), launch.staged());

    tool.run_script(parse_script("insert-file all.txt\nstart\nquit\n"));
    launch.engine().run();
    DT_ASSERT(tool.finished(), "dynprof tool did not finish");

    const Launch::Result r = launch.collect_result();
    result.app_seconds = r.app_seconds;
    result.total_seconds = r.total_seconds;
    result.trace_events = r.trace_events;
    result.filtered_events = r.filtered_events;
    result.create_instrument_seconds = sim::to_seconds(tool.create_and_instrument_time());
    result.confsyncs = launch.vt(0).confsyncs();
    result.decisions = controller.log();
  } else if (config.policy == Policy::kDynamic) {
    // "The programs were suspended after completing MPI_Init, and then a
    // list of functions was dynamically instrumented using an insert-file
    // command" (§4.2).
    DynprofTool::Options tool_options;
    tool_options.command_files = {{"subset.txt", config.app->dynamic_list}};
    DynprofTool tool(launch, std::move(tool_options));
    tool.run_script(parse_script("insert-file subset.txt\nstart\nquit\n"));
    launch.engine().run();
    DT_ASSERT(tool.finished(), "dynprof tool did not finish");

    const Launch::Result r = launch.collect_result();
    result.app_seconds = r.app_seconds;
    result.total_seconds = r.total_seconds;
    result.trace_events = r.trace_events;
    result.filtered_events = r.filtered_events;
    result.create_instrument_seconds = sim::to_seconds(tool.create_and_instrument_time());
  } else {
    const Launch::Result r = launch.run_to_completion();
    result.app_seconds = r.app_seconds;
    result.total_seconds = r.total_seconds;
    result.trace_events = r.trace_events;
    result.filtered_events = r.filtered_events;
  }
  result.trace_digest = launch.trace()->digest();
  result.stats_digest = vt::stats_digest(launch.vt(0).statistics());
  if (config.telemetry_sink) config.telemetry_sink(launch.telemetry_registry());
  return result;
}

}  // namespace dyntrace::dynprof
