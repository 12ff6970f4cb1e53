#include "dynprof/tool.hpp"

#include <algorithm>
#include <cstdio>

#include "fault/injector.hpp"
#include "image/snippet.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::dynprof {

namespace {

constexpr const char* kSpinFlag = "dynvt_spin";
constexpr const char* kInitCallbackTag = "vt-initialized";

}  // namespace

DynprofTool::DynprofTool(Launch& launch, Options options)
    : launch_(launch), options_(std::move(options)) {
  machine::Cluster& cluster = launch_.cluster();

  // Place the tool on the first node after the application's (a "login
  // node"), clamped to the machine.
  int max_app_node = 0;
  for (const auto& process : launch_.job().processes()) {
    max_app_node = std::max(max_app_node, process->node());
  }
  tool_node_ = options_.tool_node >= 0 ? options_.tool_node
                                       : std::min(max_app_node + 1, cluster.spec().nodes - 1);

  // The tool is itself a process on the cluster (its compute and message
  // times are charged like any other program's).
  auto tool_symbols = std::make_shared<image::SymbolTable>();
  tool_symbols->add("dynprof", "dynprof.cpp");
  tool_process_ = std::make_unique<proc::SimProcess>(
      cluster, options_.tool_pid, tool_node_, /*first_cpu=*/0,
      image::ProgramImage(std::move(tool_symbols)));

  // DPCL super daemons run on every node that could host a target.
  for (int node = 0; node < cluster.spec().nodes; ++node) {
    super_daemons_.push_back(std::make_unique<dpcl::SuperDaemon>(cluster, node));
  }

  attached_.emplace(tool_process_->engine());
  detach_requested_.emplace(tool_process_->engine());
}

DynprofTool::~DynprofTool() = default;

void DynprofTool::begin_phase(const std::string& name) {
  phase_name_ = name;
  phase_start_ = tool_process_->engine().now();
}

void DynprofTool::end_phase() {
  timefile_.push_back(
      TimeRecord{phase_name_, phase_start_, tool_process_->engine().now() - phase_start_});
}

std::string DynprofTool::timefile_text() const {
  std::string out = "# dynprof internal timings\n";
  for (const auto& rec : timefile_) {
    out += str::format("%-24s start=%.6fs duration=%.6fs\n", rec.phase.c_str(),
                       sim::to_seconds(rec.start), sim::to_seconds(rec.duration));
  }
  return out;
}

void DynprofTool::run_script(std::vector<Command> script) {
  tool_process_->engine().spawn(tool_main(std::move(script)), "dynprof.tool");
}

void DynprofTool::start_service() {
  tool_process_->engine().spawn(service_main(), "dynprof.service");
}

image::FunctionId DynprofTool::resolve(const std::string& name) const {
  const image::FunctionInfo* info = launch_.options().app->symbols->find(name);
  DT_EXPECT(info != nullptr, "dynprof: unknown function '", name, "'");
  return info->id;
}

std::vector<std::string> DynprofTool::resolve_file(const std::string& filename) const {
  for (const auto& [name, functions] : options_.command_files) {
    if (name == filename) return functions;
  }
  fail("dynprof: unknown command file '", filename, "'");
}

sim::Coro<void> DynprofTool::create_and_connect(proc::SimThread& tool) {
  machine::Cluster& cluster = launch_.cluster();
  const machine::CostModel& costs = cluster.spec().costs;

  // "dynprof makes a call to initiate the application using poe" (§3.3):
  // the job is created with every process suspended at its first
  // instruction.
  begin_phase("poe-create");
  co_await tool.compute(costs.poe_spawn_base +
                        costs.poe_spawn_per_proc *
                            static_cast<sim::TimeNs>(launch_.job().size()));
  end_phase();

  begin_phase("dpcl-connect");
  std::vector<dpcl::SuperDaemon*> daemons;
  daemons.reserve(super_daemons_.size());
  for (auto& sd : super_daemons_) {
    sd->start(&tool);
    daemons.push_back(sd.get());
  }
  app_ = std::make_unique<dpcl::DpclApplication>(cluster, launch_.job(), tool_node_,
                                                 std::move(daemons));
  co_await app_->connect(tool);
  end_phase();
}

sim::Coro<void> DynprofTool::install_init_hook(proc::SimThread& tool) {
  // Figure 6: inserted "immediately upon loading the application".
  begin_phase("install-init-hook");
  const asci::AppSpec& app = *launch_.options().app;
  // Mixed-mode apps synchronise through MPI_Init like pure MPI ones.
  const bool is_mpi = app.model != asci::AppSpec::Model::kOpenMP;
  image::SnippetPtr snippet;
  image::FunctionId hook_fn;
  if (is_mpi) {
    hook_fn = resolve("MPI_Init");
    snippet = image::snippet::seq({
        image::snippet::call("MPI_Barrier"),
        image::snippet::callback(kInitCallbackTag),
        image::snippet::spin_until(kSpinFlag, 1),
        image::snippet::call("MPI_Barrier"),
    });
  } else {
    // OpenMP: VT_init runs in a guaranteed single-threaded region, so no
    // barriers are needed (§3.4).
    hook_fn = resolve("VT_init");
    snippet = image::snippet::seq({
        image::snippet::callback(kInitCallbackTag),
        image::snippet::spin_until(kSpinFlag, 1),
    });
  }
  co_await app_->install_probe(tool, hook_fn, image::ProbeWhere::kExit, std::move(snippet),
                               /*activate=*/true, /*blocking=*/true);
  end_phase();
}

void DynprofTool::note_degraded_nodes(sim::TimeNs now, bool had_probes) {
  if (app_ == nullptr) return;
  fault::RunReport& report = launch_.cluster().fault_injector().report();
  auto ranks_on = [this](int node) {
    std::vector<int> ranks;
    for (const auto& process : launch_.job().processes()) {
      if (process->node() == node) ranks.push_back(process->pid());
    }
    std::sort(ranks.begin(), ranks.end());
    return ranks;
  };
  for (const int node : app_->lost_nodes()) {
    if (!degraded_nodes_.insert(node).second) continue;
    Degradation drop;
    drop.time = now;
    drop.node = node;
    drop.ranks = ranks_on(node);
    drop.from = Policy::kDynamic;
    drop.to = had_probes ? Policy::kSubset : Policy::kNone;
    report.add(now, "degrade",
               str::format("node=%d %s->%s", node, to_string(drop.from), to_string(drop.to)),
               drop.ranks);
    degradations_.push_back(std::move(drop));
  }
  // Quarantined (breaker-open) nodes take the same ladder drop, but
  // reversibly: a half-open probe that re-admits the node lifts it, and a
  // relapse records a fresh drop.  Lost nodes take precedence.
  const dpcl::HealthTracker& health = app_->health();
  for (auto it = quarantine_dropped_.begin(); it != quarantine_dropped_.end();) {
    const int node = *it;
    if (health.state(node) == dpcl::BreakerState::kClosed &&
        app_->lost_nodes().count(node) == 0) {
      report.add(now, "restore", str::format("node=%d quarantine lifted", node),
                 ranks_on(node));
      it = quarantine_dropped_.erase(it);
    } else {
      ++it;
    }
  }
  for (const int node : app_->quarantined_last_broadcast()) {
    if (degraded_nodes_.count(node) != 0) continue;
    if (!quarantine_dropped_.insert(node).second) continue;
    Degradation drop;
    drop.time = now;
    drop.node = node;
    drop.ranks = ranks_on(node);
    drop.from = Policy::kDynamic;
    drop.to = had_probes ? Policy::kSubset : Policy::kNone;
    report.add(now, "degrade",
               str::format("node=%d %s->%s (quarantine)", node, to_string(drop.from),
                           to_string(drop.to)),
               drop.ranks);
    degradations_.push_back(std::move(drop));
  }
}

sim::Coro<void> DynprofTool::await_init_and_release(proc::SimThread& tool) {
  // Every process reports in once it has passed MPI_Init + VT init (the
  // first barrier of Figure 6 aligns them before the callbacks fire).
  begin_phase("await-init-callbacks");
  const int expected = launch_.process_count();
  // Callbacks can be lost (dropped relay, dead daemon) or duplicated, so
  // collapse them by pid and bound every wait.
  const machine::FaultTolerance& ft = launch_.cluster().spec().fault;
  std::set<int> reported;
  {
    // Stands down when the loop ends, leaving no timer behind.
    sim::Watchdog watchdog(tool.engine());
    while (static_cast<int>(reported.size()) < expected) {
      auto cb = co_await app_->callbacks().recv_for(watchdog, ft.init_callback_timeout);
      if (!cb.has_value()) break;  // the silent processes are not coming
      DT_EXPECT(cb->tag == kInitCallbackTag, "unexpected callback '", cb->tag, "'");
      reported.insert(cb->pid);
    }
  }
  if (static_cast<int>(reported.size()) < expected) {
    std::vector<int> missing;
    for (int pid = 0; pid < expected; ++pid) {
      if (reported.count(pid) == 0) missing.push_back(pid);
    }
    launch_.cluster().fault_injector().report().add(
        tool.engine().now(), "init-missing",
        str::format("%zu of %d init callbacks never arrived", missing.size(), expected),
        missing);
  }
  // Nodes whose daemon died during connect or the init hook run with no
  // instrumentation at all.
  note_degraded_nodes(tool.engine().now(), /*had_probes=*/false);
  end_phase();

  // Now it is safe to instrument: install everything the user queued.
  begin_phase("install-probes");
  if (!pending_inserts_.empty()) {
    std::vector<std::string> queued;
    queued.swap(pending_inserts_);
    co_await do_insert(tool, queued);
  }
  end_phase();

  // Release the spin waits.  The set-flag messages reach each node's
  // daemon with differing delays -- the second barrier of Figure 6
  // re-synchronises the processes before the main computation.
  begin_phase("release-spin");
  co_await app_->set_flag_all(tool, kSpinFlag, 1, /*blocking=*/true);
  note_degraded_nodes(tool.engine().now(), /*had_probes=*/!instrumented_.empty());
  end_phase();

  init_released_ = true;
  // From here on every broadcast is a mid-run patch: the circuit breaker
  // may quarantine sick nodes instead of waiting out their retries.
  app_->set_steady_state(true);
  create_and_instrument_ = tool.engine().now() - tool_start_time_;
}

sim::Coro<void> DynprofTool::do_insert(proc::SimThread& tool,
                                       const std::vector<std::string>& names) {
  // Degradation ladder bookkeeping: a node abandoned while this batch goes
  // in drops to Subset if it already carries probes (earlier batch, or an
  // earlier name of this one), to None otherwise.
  const bool had_probes_before = !instrumented_.empty();
  // Mid-run insertion must stop the target first (§3.4), with a blocking
  // suspend (which OpenMP apps require).
  const bool midrun = init_released_;
  if (midrun) {
    co_await app_->suspend_all(tool, /*blocking=*/true);
    note_degraded_nodes(tool.engine().now(), had_probes_before);
  }
  std::size_t installed = 0;
  for (const auto& name : names) {
    const image::FunctionId fn = resolve(name);
    std::vector<std::int64_t> arg(1, static_cast<std::int64_t>(fn));
    co_await app_->install_probe(tool, fn, image::ProbeWhere::kEntry,
                                 image::snippet::call("VT_begin", arg),
                                 /*activate=*/true, /*blocking=*/true);
    co_await app_->install_probe(tool, fn, image::ProbeWhere::kExit,
                                 image::snippet::call("VT_end", arg),
                                 /*activate=*/true, /*blocking=*/true);
    note_degraded_nodes(tool.engine().now(), had_probes_before || installed > 0);
    ++installed;
    if (std::find(instrumented_.begin(), instrumented_.end(), name) == instrumented_.end()) {
      instrumented_.push_back(name);
    }
  }
  if (midrun) {
    co_await app_->resume_all(tool, /*blocking=*/false);
  }
}

sim::Coro<void> DynprofTool::do_remove(proc::SimThread& tool,
                                       const std::vector<std::string>& names) {
  const bool midrun = init_released_;
  if (midrun) {
    co_await app_->suspend_all(tool, /*blocking=*/true);
  }
  for (const auto& name : names) {
    co_await app_->remove_function_probes(tool, resolve(name), /*blocking=*/true);
    instrumented_.erase(std::remove(instrumented_.begin(), instrumented_.end(), name),
                        instrumented_.end());
  }
  if (midrun) {
    co_await app_->resume_all(tool, /*blocking=*/false);
  }
}

sim::Coro<void> DynprofTool::insert_functions(const std::vector<std::string>& names) {
  DT_EXPECT(init_released_, "insert_functions before the application is running");
  co_await do_insert(tool_thread(), names);
}

sim::Coro<void> DynprofTool::remove_functions(const std::vector<std::string>& names) {
  DT_EXPECT(init_released_, "remove_functions before the application is running");
  co_await do_remove(tool_thread(), names);
}

sim::Coro<void> DynprofTool::service_main() {
  proc::SimThread& tool = tool_process_->main_thread();
  tool_start_time_ = tool.engine().now();

  co_await create_and_connect(tool);
  co_await install_init_hook(tool);
  started_app_ = true;
  launch_.start(&tool);
  co_await await_init_and_release(tool);
  attached_->fire();

  // Park until the service detaches; all instrumentation traffic in
  // between arrives through insert_functions()/remove_functions().
  co_await detach_requested_->wait();
  finished_ = true;
}

sim::Coro<void> DynprofTool::tool_main(std::vector<Command> script) {
  proc::SimThread& tool = tool_process_->main_thread();
  tool_start_time_ = tool.engine().now();

  co_await create_and_connect(tool);
  co_await install_init_hook(tool);

  for (const Command& cmd : script) {
    switch (cmd.kind) {
      case CommandKind::kHelp:
        std::fputs(help_text().c_str(), stdout);
        break;
      case CommandKind::kInsert:
      case CommandKind::kInsertFile: {
        std::vector<std::string> names;
        if (cmd.kind == CommandKind::kInsert) {
          names = cmd.args;
        } else {
          for (const auto& file : cmd.args) {
            const auto from_file = resolve_file(file);
            names.insert(names.end(), from_file.begin(), from_file.end());
          }
        }
        if (!started_app_ || !init_released_) {
          // Deferred until the Figure-6 callback confirms it is safe.
          pending_inserts_.insert(pending_inserts_.end(), names.begin(), names.end());
        } else {
          co_await do_insert(tool, names);
        }
        break;
      }
      case CommandKind::kRemove:
      case CommandKind::kRemoveFile: {
        std::vector<std::string> names;
        if (cmd.kind == CommandKind::kRemove) {
          names = cmd.args;
        } else {
          for (const auto& file : cmd.args) {
            const auto from_file = resolve_file(file);
            names.insert(names.end(), from_file.begin(), from_file.end());
          }
        }
        DT_EXPECT(started_app_ && init_released_,
                  "dynprof: remove before the application is running");
        co_await do_remove(tool, names);
        break;
      }
      case CommandKind::kStart:
        DT_EXPECT(!started_app_, "dynprof: application already started");
        started_app_ = true;
        launch_.start(&tool);
        co_await await_init_and_release(tool);
        break;
      case CommandKind::kWait:
        co_await tool.engine().sleep(sim::seconds(cmd.wait_seconds()));
        break;
      case CommandKind::kQuit:
        // Detach: active instrumentation stays in place (§3.3).
        finished_ = true;
        co_return;
    }
  }
  finished_ = true;
}

}  // namespace dyntrace::dynprof
