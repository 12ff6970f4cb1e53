#include "dynprof/policy.hpp"

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

PolicyRun::PolicyRun(Launch::Options options, Arming arming) : arming_(std::move(arming)) {
  if (options.policy == Policy::kAdaptive) {
    // The controller's feedback: statistics at every safe point.
    if (options.params.confsync_interval == 0) options.params.confsync_interval = 36;
    options.params.confsync_statistics = true;
  }
  launch_ = std::make_unique<Launch>(std::move(options));
}

PolicyRun::~PolicyRun() = default;

void PolicyRun::arm() {
  if (armed_) return;
  armed_ = true;
  const Policy policy = launch_->options().policy;
  if (policy != Policy::kDynamic && policy != Policy::kAdaptive) return;

  // "The programs were suspended after completing MPI_Init, and then a
  // list of functions was dynamically instrumented using an insert-file
  // command" (§4.2).  Adaptive starts from full dynamic coverage, and the
  // controller earns the budget back at safe points.
  const asci::AppSpec& app = *launch_->options().app;
  DynprofTool::Options tool_options;
  tool_options.tool_node = arming_.tool_node;
  tool_options.tool_pid = arming_.tool_pid;
  std::vector<std::string> all_user;
  for (const auto& fn : app.symbols->all()) {
    if (!guide::is_runtime_module(fn.module)) all_user.push_back(fn.name);
  }
  tool_options.command_files = {{"subset", app.dynamic_list}, {"all", std::move(all_user)}};
  tool_ = std::make_unique<DynprofTool>(*launch_, std::move(tool_options));
  if (arming_.script.empty()) {
    arming_.script = policy == Policy::kAdaptive ? "insert-file all\nstart\nquit\n"
                                                 : "insert-file subset\nstart\nquit\n";
  }

  if (policy == Policy::kAdaptive) {
    for (int pid = 0; pid < launch_->process_count(); ++pid) {
      control::install_probe_edit_applier(launch_->vt(pid));
    }
    controller_ = std::make_unique<control::BudgetController>(arming_.controller);
    controller_->attach(launch_->vt(0), launch_->staged());
  }
}

void PolicyRun::start() {
  arm();
  if (tool_ != nullptr) {
    tool_->run_script(parse_script(arming_.script));
  } else {
    launch_->start();
  }
}

PolicyResult PolicyRun::finish() {
  if (tool_ != nullptr) {
    DT_ASSERT(tool_->finished(), "job '", launch_->job_name(), "'s dynprof tool did not finish");
  }
  const Launch::Result r = launch_->collect_result();
  PolicyResult result;
  result.policy = launch_->options().policy;
  result.nprocs = launch_->options().params.nprocs;
  result.app_seconds = r.app_seconds;
  result.total_seconds = r.total_seconds;
  result.trace_events = r.trace_events;
  result.filtered_events = r.filtered_events;
  if (tool_ != nullptr) {
    result.create_instrument_seconds = sim::to_seconds(tool_->create_and_instrument_time());
  }
  if (controller_ != nullptr) {
    result.confsyncs = launch_->vt(0).confsyncs();
    result.decisions = controller_->log();
  }
  result.trace_digest = launch_->trace()->digest();
  result.stats_digest = vt::stats_digest(launch_->vt(0).statistics());
  return result;
}

PolicyResult PolicyRun::run() {
  start();
  launch_->engine().run();
  return finish();
}

PolicyResult run_policy(Launch::Options options, Arming arming) {
  return PolicyRun(std::move(options), std::move(arming)).run();
}

}  // namespace dyntrace::dynprof
