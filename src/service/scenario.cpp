#include "service/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dynprof/policy.hpp"
#include "sim/mailbox.hpp"
#include "support/common.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::service {

namespace {

constexpr const char* kSentinelName = "svcapp_run";

/// Hard iteration ceiling: every rank hits it at the same iteration, so
/// even a broken shutdown path ends collectively instead of spinning the
/// engine forever.
constexpr std::int64_t kMaxIterations = 200'000;

std::string fn_name(int index) { return str::format("svc_fn_%02d", index); }

/// `fn_ids` are the svc_fn_NN ids in order, resolved when the spec is built.
sim::Coro<void> svcapp_body(asci::AppContext& ctx, proc::SimThread& thread,
                            const std::vector<image::FunctionId>& fn_ids,
                            image::FunctionId sentinel) {
  vt::VtLib* vt = ctx.vt();
  Rng& rng = ctx.rng();
  const int fns = static_cast<int>(fn_ids.size());

  for (std::int64_t iter = 0; iter < kMaxIterations; ++iter) {
    // The iteration's bulk numerics...
    co_await thread.compute(
        sim::nanoseconds(rng.normal_at_least(400e3, 40e3, 50e3)));
    // ...and a rotating window of hot leaves over the function inventory,
    // so every function eventually accumulates observable call rates.
    for (int k = 0; k < 4 && fns > 0; ++k) {
      const int idx = static_cast<int>((iter * 4 + k) % fns);
      const auto work =
          sim::nanoseconds(rng.normal_at_least(2'000, 300, 200));
      co_await ctx.leaf_repeat(thread, fn_ids[static_cast<std::size_t>(idx)], 48, work);
    }
    if (ctx.mpi() != nullptr && ctx.nprocs() > 1) {
      co_await ctx.mpi()->allreduce(thread, 8);
    }
    co_await ctx.safe_point(thread);
    // Collective shutdown: the service deactivates the sentinel through a
    // staged filter directive; VT_confsync applies it on every rank at the
    // same safe point, so the whole job leaves the loop at one iteration.
    if (vt != nullptr && vt->filter().deactivated(sentinel)) break;
  }
}

// --- digest helpers ----------------------------------------------------------

std::uint64_t quantize(double fraction) {
  return static_cast<std::uint64_t>(std::llround(fraction * 1e12));
}

// --- session drivers ---------------------------------------------------------

// One driver coroutine serves a *batch* of sessions sequentially (batch 1 =
// the legacy one-coroutine-per-session shape).  Batching keeps the harness
// memory flat in the session count -- 100k sessions need only
// 100k/session_batch coroutines, mailboxes and triggers -- at the price of
// serializing the sessions inside one batch.
struct Driver {
  int node = 0;
  sim::Engine* engine = nullptr;
  /// Keeps every driver's response deadlines (one per scenario).
  sim::Watchdog* watchdog = nullptr;
  std::unique_ptr<sim::Trigger> start;
  std::unique_ptr<sim::Mailbox<Response>> inbox;
  /// Storm drivers: absolute gate time from the fault plan (0 = the normal
  /// staggered gate).
  sim::TimeNs gate_at = 0;
  struct Entry {
    SessionId id = 0;
    std::vector<Request> script;
    ScenarioResult::SessionOutcome outcome;
  };
  std::vector<Entry> entries;
};

struct Coordinator {
  std::size_t remaining = 0;
  std::unique_ptr<sim::Trigger> all_done;

  void note_done() {
    DT_ASSERT(remaining > 0, "coordinator completion underflow");
    if (--remaining == 0) all_done->fire();
  }
};

// Drive one session's script.  Up to `pipeline_depth` commands stay in
// flight (depth 1 reproduces the legacy lock-step driver exactly); the
// detach drains the window first so grants release only after the script's
// real work resolved.  A timed-out or shutdown-refused session skips ahead
// to its detach so the run still drains.
sim::Coro<void> drive_session(Driver& d, Driver::Entry& entry, ControlService& svc,
                              machine::Cluster& cluster, sim::TimeNs response_timeout,
                              int pipeline_depth) {
  telemetry::Registry& reg = telemetry::current();
  const std::size_t depth = static_cast<std::size_t>(pipeline_depth);
  std::uint32_t seq = 0;
  bool bail = false;
  struct Pending {
    std::uint32_t seq = 0;
    std::size_t index = 0;
    sim::TimeNs sent = 0;
  };
  // In send order, so the front has the earliest deadline.
  std::vector<Pending> outstanding;
  outstanding.reserve(depth);
  // By script index; skipped commands stay empty.
  std::vector<std::optional<ScenarioResult::CommandOutcome>> results(entry.script.size());

  const auto resolve = [&](std::uint32_t which, Status status, sim::TimeNs now) {
    const auto it = std::find_if(outstanding.begin(), outstanding.end(),
                                 [which](const Pending& p) { return p.seq == which; });
    if (it == outstanding.end()) return;  // stale or duplicate response
    ScenarioResult::CommandOutcome out;
    out.kind = entry.script[it->index].kind;
    out.status = status;
    out.latency = now - it->sent;
    results[it->index] = out;
    reg.observe(reg.metrics().service_command_latency_ns,
                static_cast<std::uint64_t>(out.latency));
    if (status == Status::kTimeout || status == Status::kShutdown) bail = true;
    outstanding.erase(it);
  };

  std::size_t next = 0;
  const std::size_t total = entry.script.size();
  while (next < total || !outstanding.empty()) {
    while (next < total && outstanding.size() < depth) {
      Request& request = entry.script[next];
      if (bail && request.kind != CommandKind::kDetach) {
        ++next;
        continue;
      }
      if (request.kind == CommandKind::kDetach && !outstanding.empty()) break;
      // Each script entry is sent once and outlives the run, so it is
      // stamped in place and the submit message carries a pointer to it.
      request.session = entry.id;
      request.seq = ++seq;
      request.client_node = d.node;
      const sim::TimeNs sent = d.engine->now();
      const sim::TimeNs delay =
          cluster.message_delay(d.node, svc.node(), request_bytes(request), sent);
      ControlService* service = &svc;
      const Request* stamped = &request;
      svc.engine().schedule_at(sent + delay, [service, stamped] { service->submit(*stamped); });
      outstanding.push_back(Pending{seq, next, sent});
      ++next;
    }
    if (outstanding.empty()) continue;  // everything left was skipped

    // Wait for a response or the earliest outstanding command's deadline.
    const sim::TimeNs earliest = outstanding.front().sent + response_timeout;
    const std::uint32_t earliest_seq = outstanding.front().seq;
    const sim::TimeNs now = d.engine->now();
    if (now >= earliest) {
      resolve(earliest_seq, Status::kTimeout, now);
      continue;
    }
    std::optional<Response> response =
        co_await d.inbox->recv_for(*d.watchdog, earliest - now);
    if (!response.has_value()) {
      resolve(earliest_seq, Status::kTimeout, d.engine->now());
      continue;
    }
    if (response->session != entry.id) continue;  // another batch entry's late ack
    resolve(response->seq, response->status, d.engine->now());
  }

  entry.outcome.commands.reserve(results.size());
  for (const auto& out : results) {
    if (out.has_value()) entry.outcome.commands.push_back(*out);
  }
}

sim::Coro<void> session_coro(Driver& d, ControlService& svc, machine::Cluster& cluster,
                             sim::TimeNs response_timeout, int pipeline_depth,
                             Coordinator& coord) {
  co_await d.start->wait();
  for (Driver::Entry& entry : d.entries) {
    co_await drive_session(d, entry, svc, cluster, response_timeout, pipeline_depth);
  }

  // Tell the coordinator (on the service's node) this batch is done.
  const sim::TimeNs now = d.engine->now();
  const sim::TimeNs delay = cluster.message_delay(d.node, svc.node(), 64, now);
  Coordinator* c = &coord;
  svc.engine().schedule_at(now + delay, [c] { c->note_done(); });
}

sim::Coro<void> scenario_main(dynprof::DynprofTool& tool, ControlService& svc,
                              machine::Cluster& cluster, std::vector<std::unique_ptr<Driver>>& drivers,
                              sim::TimeNs stagger, Coordinator& coord, sim::Watchdog& watchdog) {
  co_await tool.attached().wait();
  svc.start();

  // Open the session start gates, staggered, each after a message to its
  // driver's node.  Storm drivers carry an absolute gate time from the
  // fault plan instead: the whole burst is admitted at that instant (or as
  // soon as the attachment is up, whichever is later).
  const sim::TimeNs now = svc.engine().now();
  std::size_t staggered = 0;
  for (std::size_t i = 0; i < drivers.size(); ++i) {
    Driver* d = drivers[i].get();
    const sim::TimeNs delay = cluster.message_delay(svc.node(), d->node, 64, now);
    const sim::TimeNs at =
        d->gate_at > 0
            ? std::max(d->gate_at, now + delay)
            : now + delay + static_cast<sim::TimeNs>(staggered++) * stagger;
    cluster.engine().schedule_at(at, [d] { d->start->fire(); });
  }

  co_await coord.all_done->wait();
  // No driver waits any more: cancel the response timer rather than let
  // it run the clock on to its deadline.
  watchdog.stand_down();
  svc.initiate_shutdown(kSentinelName);
  tool.request_detach();
}

std::vector<Request> generate_script(Rng& rng, int functions, int commands) {
  std::vector<Request> script;
  script.reserve(static_cast<std::size_t>(commands));
  for (int c = 0; c < commands; ++c) {
    Request request;
    switch (rng.next_below(4)) {
      case 0: {
        request.kind = CommandKind::kInstrument;
        const int n = 1 + static_cast<int>(rng.next_below(3));
        for (int k = 0; k < n; ++k) {
          request.functions.push_back(
              fn_name(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(functions)))));
        }
        break;
      }
      case 1: {
        request.kind = CommandKind::kSubscribe;
        const int decades = (functions + 9) / 10;
        request.pattern = str::format(
            "svc_fn_%d*", static_cast<int>(rng.next_below(static_cast<std::uint64_t>(decades))));
        break;
      }
      case 2: {
        request.kind = CommandKind::kConfsync;
        request.directives.push_back(
            {rng.next_below(2) == 0,
             fn_name(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(functions))))});
        break;
      }
      default:
        request.kind = CommandKind::kReport;
        break;
    }
    script.push_back(std::move(request));
  }
  return script;
}

}  // namespace

asci::AppSpec make_svcapp(int functions) {
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main", "svcapp.c");
  symbols->add("MPI_Init", "libmpi");
  symbols->add("MPI_Finalize", "libmpi");
  std::vector<image::FunctionId> fn_ids;
  fn_ids.reserve(static_cast<std::size_t>(functions));
  for (int i = 0; i < functions; ++i) {
    fn_ids.push_back(symbols->add(fn_name(i), str::format("svc_mod_%d.c", i / 8)));
  }
  const image::FunctionId sentinel = symbols->add(kSentinelName, "svcapp.c");

  asci::AppSpec spec;
  spec.name = "svcapp";
  spec.language = "MPI/C";
  spec.description = "Synthetic service-target application (open-ended iteration loop)";
  spec.model = asci::AppSpec::Model::kMpi;
  spec.scaling = asci::AppSpec::Scaling::kWeak;
  spec.min_procs = 1;
  spec.max_procs = 1024;
  spec.symbols = symbols;
  spec.body = [fn_ids, sentinel](asci::AppContext& ctx, proc::SimThread& thread) {
    return svcapp_body(ctx, thread, fn_ids, sentinel);
  };
  return spec;
}

ScenarioResult run_scenario(const ScenarioOptions& options) {
  // The launch checks ranks and problem_scale; these are the scenario's own.
  DT_EXPECT(options.sim_threads == 1, "ScenarioOptions::sim_threads must be 1 (got ",
            options.sim_threads, "): the simulator has one sequential engine");
  DT_EXPECT(options.sessions >= 0 && options.sessions <= std::int64_t{kMaxSessionId} + 1,
            "ScenarioOptions::sessions must be in [0, ", std::int64_t{kMaxSessionId} + 1,
            "] (got ", options.sessions, ")");
  DT_EXPECT(options.functions >= 1 && options.functions <= kMaxScenarioFunctions,
            "ScenarioOptions::functions must be in [1, ", kMaxScenarioFunctions, "] (got ",
            options.functions, "): session scripts draw from the function inventory");
  DT_EXPECT(options.commands_per_session >= 0 &&
                options.commands_per_session <= kMaxCommandsPerSession,
            "ScenarioOptions::commands_per_session must be in [0, ", kMaxCommandsPerSession,
            "] (got ", options.commands_per_session, ")");
  const std::int64_t script_commands =
      std::int64_t{options.sessions} * (std::int64_t{options.commands_per_session} + 2);
  DT_EXPECT(script_commands <= kMaxScenarioCommands,
            "ScenarioOptions::sessions x (ScenarioOptions::commands_per_session + 2) must be "
            "at most ", kMaxScenarioCommands, " (got ", script_commands,
            "): every session's script is built before the run");
  DT_EXPECT(options.session_batch >= 1, "ScenarioOptions::session_batch must be >= 1 (got ",
            options.session_batch, ")");
  DT_EXPECT(options.pipeline_depth >= 1, "ScenarioOptions::pipeline_depth must be >= 1 (got ",
            options.pipeline_depth, ")");
  DT_EXPECT(options.confsync_interval >= 1,
            "ScenarioOptions::confsync_interval must be >= 1 (got ", options.confsync_interval,
            "): the service applies directives, shutdown included, at safe points");
  DT_EXPECT(options.session_stagger >= 0, "ScenarioOptions::session_stagger must be >= 0 (got ",
            options.session_stagger, ")");
  DT_EXPECT(options.response_timeout > 0, "ScenarioOptions::response_timeout must be > 0 (got ",
            options.response_timeout, ")");
  const auto host_start = std::chrono::steady_clock::now();

  const asci::AppSpec app = make_svcapp(options.functions);
  dynprof::Launch::Options lo;
  lo.app = &app;
  lo.params.nprocs = options.ranks;
  lo.params.problem_scale = options.problem_scale;
  lo.params.seed = options.seed;
  lo.params.confsync_interval = options.confsync_interval;
  lo.params.confsync_statistics = true;  // the overlay root (rank 0) feeds the break agent
  lo.policy = dynprof::Policy::kDynamic;
  lo.fault = options.fault;
  lo.telemetry_level = options.telemetry_level;
  // The tool holds the attachment open (start_service() below): no script.
  dynprof::PolicyRun run(std::move(lo));
  run.arm();
  dynprof::Launch& launch = run.launch();
  dynprof::DynprofTool& tool = *run.tool();
  ControlService service(launch, tool, options.service);
  machine::Cluster& cluster = launch.cluster();

  // Every response timeout has the same length, so the drivers' deadlines
  // arrive in send order and one watchdog timer covers them all.
  sim::Watchdog watchdog(cluster.engine());

  const bool scripted = !options.scripted_sessions.empty();
  const std::size_t session_count =
      scripted ? options.scripted_sessions.size() : static_cast<std::size_t>(options.sessions);

  // Client nodes sit above the tool node, reused round-robin; a machine too
  // small for any client node co-locates the drivers with the service.
  const int tool_node = service.node();
  const int first_client = tool_node + 1;
  const int avail = cluster.spec().nodes - first_client;
  const int client_nodes = std::min(options.session_nodes, std::max(avail, 0));

  // Storm actions in the fault plan burst-admit extra generated sessions at
  // a fixed time, after the configured ones.
  const std::vector<std::pair<sim::TimeNs, int>> storms = cluster.fault_injector().storms();
  std::size_t storm_count = 0;
  for (const auto& [at, n] : storms) storm_count += static_cast<std::size_t>(n);

  const int batch = options.session_batch;
  std::vector<std::unique_ptr<Driver>> drivers;
  drivers.reserve((session_count + static_cast<std::size_t>(batch) - 1) /
                      static_cast<std::size_t>(batch) +
                  storm_count);

  const auto make_script = [&](std::size_t id) {
    std::vector<Request> script;
    script.emplace_back().kind = CommandKind::kAttach;
    if (scripted && id < options.scripted_sessions.size()) {
      const std::vector<Request>& body = options.scripted_sessions[id];
      script.insert(script.end(), body.begin(), body.end());
    } else {
      Rng rng(options.seed ^ (0x9e3779b97f4a7c15ull * (id + 1)));
      std::vector<Request> body =
          generate_script(rng, options.functions, options.commands_per_session);
      script.insert(script.end(), std::make_move_iterator(body.begin()),
                    std::make_move_iterator(body.end()));
    }
    script.emplace_back().kind = CommandKind::kDetach;
    return script;
  };

  const auto make_driver = [&](std::size_t driver_index, std::size_t first_id,
                               std::size_t count, sim::TimeNs gate_at) {
    auto driver = std::make_unique<Driver>();
    driver->node = client_nodes > 0
                       ? first_client + static_cast<int>(driver_index) % client_nodes
                       : tool_node;
    driver->engine = &cluster.engine();
    driver->watchdog = &watchdog;
    driver->start = std::make_unique<sim::Trigger>(*driver->engine);
    driver->inbox = std::make_unique<sim::Mailbox<Response>>(*driver->engine);
    driver->gate_at = gate_at;
    driver->entries.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      Driver::Entry entry;
      entry.id = static_cast<SessionId>(first_id + k);
      entry.script = make_script(first_id + k);
      entry.outcome.id = entry.id;
      entry.outcome.node = driver->node;
      driver->entries.push_back(std::move(entry));
    }
    // Entries are stable from here on (the vector is never resized), so the
    // sinks can capture entry pointers.
    for (Driver::Entry& entry : driver->entries) {
      Driver::Entry* e = &entry;
      Driver* d = driver.get();
      service.register_session(
          e->id, d->node, [d](const Response& response) { d->inbox->put(response); },
          [e](const SubscriptionDelta& delta) {
            ++e->outcome.deltas;
            e->outcome.delta_pairs += delta.pairs;
          });
    }
    drivers.push_back(std::move(driver));
  };

  std::size_t driver_index = 0;
  for (std::size_t first = 0; first < session_count;
       first += static_cast<std::size_t>(batch)) {
    const std::size_t count =
        std::min(static_cast<std::size_t>(batch), session_count - first);
    make_driver(driver_index++, first, count, /*gate_at=*/0);
  }
  std::size_t storm_id = session_count;
  for (const auto& [at, n] : storms) {
    for (int k = 0; k < n; ++k) {
      make_driver(driver_index++, storm_id++, 1, /*gate_at=*/at);
    }
  }

  // No session and no storm: the scenario would wait forever for a driver
  // to finish, so there is nothing to run.
  if (drivers.empty()) return ScenarioResult{};

  Coordinator coord;
  coord.remaining = drivers.size();
  coord.all_done = std::make_unique<sim::Trigger>(service.engine());

  tool.start_service();
  for (const std::unique_ptr<Driver>& driver : drivers) {
    Driver* d = driver.get();
    d->engine->spawn(
        session_coro(*d, service, cluster, options.response_timeout,
                     options.pipeline_depth, coord),
        str::format("svc.session.%u", d->entries.front().id));
  }
  service.engine().spawn(scenario_main(tool, service, cluster, drivers,
                                       options.session_stagger, coord, watchdog),
                         "svc.scenario");

  launch.engine().run();

  // --- collect -------------------------------------------------------------
  ScenarioResult result;
  result.storm_sessions = storm_count;
  result.sessions.reserve(session_count + storm_count);
  for (const std::unique_ptr<Driver>& driver : drivers) {
    for (const Driver::Entry& entry : driver->entries) {
      result.sessions.push_back(entry.outcome);
      for (const ScenarioResult::CommandOutcome& out : entry.outcome.commands) {
        ++result.status_counts[out.status];
        ++result.commands;
        result.latencies.push_back(out.latency);
      }
    }
  }
  result.shed_commands = service.shed_commands();
  result.deadline_cancels = service.deadline_cancels();
  result.fairshare_flips = service.fairshare_flips();
  result.sub_drops = service.sub_drops();
  result.admission_evals = service.admission_evals();
  result.queue_visits = service.queue_visits();
  result.queued_admits = service.queued_admits();
  result.queue_epoch_waits = service.queue_epoch_waits();
  result.expiry_scan_visits = service.expiry_scan_visits();
  result.event_pushes = launch.engine().queue_pushes();
  result.event_cancels = launch.engine().queue_cancels();
  result.response_timer_cancels = watchdog.cancels();
  result.windows = service.windows();
  const double budget = service.admission().options().budget_fraction;
  result.budget_violations = static_cast<std::size_t>(
      std::count_if(result.windows.begin(), result.windows.end(), [budget](const WindowRecord& w) {
        return w.priced_after > budget + 1e-9 && !w.at_floor;
      }));
  result.budget_ok = result.budget_violations == 0;
  for (image::FunctionId fn = 0; fn < launch.options().app->symbols->size(); ++fn) {
    if (launch.vt(0).filter().deactivated(fn)) result.rank0_deactivated.push_back(fn);
  }
  if (tool.application() != nullptr) result.lost_ranks = tool.application()->lost_pids();
  result.sim_seconds = launch.collect_result().total_seconds;
  result.stats_digest = vt::stats_digest(launch.vt(0).statistics());

  std::uint64_t h = kFnvOffset;
  for (const ScenarioResult::SessionOutcome& session : result.sessions) {
    h = fnv1a_mix(h, session.id);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(session.node));
    for (const ScenarioResult::CommandOutcome& out : session.commands) {
      h = fnv1a_mix(h, static_cast<std::uint64_t>(out.kind));
      h = fnv1a_mix(h, static_cast<std::uint64_t>(out.status));
      h = fnv1a_mix(h, static_cast<std::uint64_t>(out.latency));
    }
    h = fnv1a_mix(h, session.deltas);
    h = fnv1a_mix(h, session.delta_pairs);
  }
  for (const WindowRecord& window : result.windows) {
    h = fnv1a_mix(h, window.sync);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(window.time));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(window.window));
    h = fnv1a_mix(h, quantize(window.measured_fraction));
    h = fnv1a_mix(h, quantize(window.priced_before));
    h = fnv1a_mix(h, quantize(window.priced_after));
    h = fnv1a_mix(h, window.flips);
    h = fnv1a_mix(h, window.at_floor ? 1 : 0);
  }
  for (const image::FunctionId fn : result.rank0_deactivated) h = fnv1a_mix(h, fn);
  for (const int pid : result.lost_ranks) h = fnv1a_mix(h, static_cast<std::uint64_t>(pid));
  h = fnv1a_mix(h, service.responses_sent());
  h = fnv1a_mix(h, result.shed_commands);
  h = fnv1a_mix(h, result.deadline_cancels);
  h = fnv1a_mix(h, result.fairshare_flips);
  h = fnv1a_mix(h, result.sub_drops);
  h = fnv1a_mix(h, result.stats_digest);
  result.digest = h;

  result.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start).count();
  return result;
}

}  // namespace dyntrace::service
