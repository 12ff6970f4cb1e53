// End-to-end ControlService behaviour through the scenario harness: session
// lifecycle over generated scripts, pushed-down subscription deltas, the
// satellite serialization guarantee (conflicting confsyncs at one safe
// point apply in session-id order, not arrival order), and run-to-run
// determinism of the full service stack.
#include "service/scenario.hpp"

#include <algorithm>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dynprof/policy.hpp"

namespace dyntrace::service {
namespace {

Request instrument(std::vector<std::string> fns) {
  Request request;
  request.kind = CommandKind::kInstrument;
  request.functions = std::move(fns);
  return request;
}

Request confsync(bool activate, std::string pattern) {
  Request request;
  request.kind = CommandKind::kConfsync;
  request.directives.push_back({activate, std::move(pattern)});
  return request;
}

Request subscribe(std::string pattern) {
  Request request;
  request.kind = CommandKind::kSubscribe;
  request.pattern = std::move(pattern);
  return request;
}

Request report() {
  Request request;
  request.kind = CommandKind::kReport;
  return request;
}

ScenarioOptions small_options() {
  ScenarioOptions options;
  options.ranks = 4;
  options.functions = 8;
  options.sessions = 12;
  options.session_nodes = 4;
  options.commands_per_session = 4;
  options.seed = 7;
  return options;
}

image::FunctionId fn_id(int functions, const char* name) {
  const asci::AppSpec spec = make_svcapp(functions);
  const image::FunctionInfo* info = spec.symbols->find(name);
  EXPECT_NE(info, nullptr);
  return info != nullptr ? info->id : image::kInvalidFunction;
}

bool deactivated(const ScenarioResult& result, image::FunctionId fn) {
  return std::find(result.rank0_deactivated.begin(), result.rank0_deactivated.end(), fn) !=
         result.rank0_deactivated.end();
}

TEST(Service, SessionLifecycleRunsEveryScriptToCompletion) {
  const ScenarioOptions options = small_options();
  const ScenarioResult result = run_scenario(options);

  ASSERT_EQ(result.sessions.size(), 12u);
  for (const auto& session : result.sessions) {
    // attach + 4 commands + detach, in order, all answered.
    ASSERT_EQ(session.commands.size(), 6u);
    EXPECT_EQ(session.commands.front().kind, CommandKind::kAttach);
    EXPECT_EQ(session.commands.front().status, Status::kOk);
    EXPECT_EQ(session.commands.back().kind, CommandKind::kDetach);
    EXPECT_EQ(session.commands.back().status, Status::kOk);
  }
  EXPECT_EQ(result.commands, 12u * 6u);
  EXPECT_EQ(result.latencies.size(), result.commands);
  EXPECT_EQ(result.status_counts.count(Status::kTimeout), 0u);
  EXPECT_EQ(result.status_counts.count(Status::kShutdown), 0u);
  EXPECT_TRUE(result.budget_ok);
  EXPECT_FALSE(result.windows.empty());
  EXPECT_TRUE(result.lost_ranks.empty());
}

TEST(Service, ZeroSessionsReturnAnEmptyResult) {
  ScenarioOptions options = small_options();
  options.sessions = 0;
  const ScenarioResult result = run_scenario(options);
  EXPECT_TRUE(result.sessions.empty());
  EXPECT_EQ(result.commands, 0u);
  EXPECT_TRUE(result.windows.empty());
  EXPECT_TRUE(result.budget_ok);
  EXPECT_EQ(result.digest, 0u);
}

TEST(Service, NegativeSessionsAreAnError) {
  ScenarioOptions options = small_options();
  options.sessions = -1;
  EXPECT_THROW(run_scenario(options), Error);
}

// Each names the option it rejects (a message, not a panic or
// std::terminate from deep inside the run).
void expect_rejected(const ScenarioOptions& options, const std::string& option) {
  try {
    run_scenario(options);
    ADD_FAILURE() << "ScenarioOptions::" << option << " was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("ScenarioOptions::" + option), std::string::npos)
        << e.what();
  }
}

TEST(Service, ZeroFunctionsAreAnError) {
  // Session scripts draw function names from the inventory: with none,
  // the draw used to panic.
  ScenarioOptions options = small_options();
  options.functions = 0;
  expect_rejected(options, "functions");
}

TEST(Service, NegativeCommandsAreAnError) {
  // -1 used to reach vector::reserve as a huge size and end in
  // std::terminate.
  ScenarioOptions options = small_options();
  options.commands_per_session = -1;
  expect_rejected(options, "commands_per_session");
}

TEST(Service, DriverShapeAndTimeoutOptionsAreChecked) {
  ScenarioOptions options = small_options();
  options.session_batch = 0;
  expect_rejected(options, "session_batch");
  options = small_options();
  options.pipeline_depth = 0;
  expect_rejected(options, "pipeline_depth");
  options = small_options();
  options.response_timeout = 0;
  expect_rejected(options, "response_timeout");
  options = small_options();
  options.session_stagger = -1;
  expect_rejected(options, "session_stagger");
  options = small_options();
  options.confsync_interval = 0;
  expect_rejected(options, "confsync_interval");
}

TEST(Service, SubscriptionDeltasAreFannedOutPerWindow) {
  ScenarioOptions options = small_options();
  // One scripted session: instrument three functions, subscribe to them,
  // then hold the session open across several safe points with confsyncs
  // (each blocks until the break applies it) so windows elapse while the
  // subscription is live.
  options.service.budget_fraction = 0.5;  // admit fully active
  options.scripted_sessions = {{
      instrument({"svc_fn_00", "svc_fn_01", "svc_fn_02"}),
      subscribe("svc_fn_0*"),
      confsync(true, "svc_fn_00"),
      confsync(true, "svc_fn_01"),
      confsync(true, "svc_fn_00"),
      confsync(true, "svc_fn_01"),
      report(),
  }};
  const ScenarioResult result = run_scenario(options);

  ASSERT_EQ(result.sessions.size(), 1u);
  const auto& session = result.sessions[0];
  EXPECT_EQ(session.commands[1].status, Status::kAdmitted);
  EXPECT_EQ(session.commands[2].status, Status::kOk);  // subscribe accepted
  // The instrumented functions run every iteration, so each window the
  // subscription spans pushes one delta with live pairs.
  EXPECT_GT(session.deltas, 0u);
  EXPECT_GT(session.delta_pairs, 0u);
  EXPECT_EQ(result.status_counts.count(Status::kTimeout), 0u);
}

// A session's second subscription spends credits of its own: each returned
// credit goes back to the subscription that spent it, so neither starves
// while the client keeps up.  Crediting the session's first subscription
// instead dropped 7 of the second's windows as a "slow subscriber".
TEST(Service, EverySubscriptionOfASessionGetsItsCreditsBack) {
  ScenarioOptions options;
  options.ranks = 4;
  options.seed = 42;
  std::vector<Request> script{subscribe("svc_fn_0*"), subscribe("svc_fn_1*")};
  for (int i = 0; i < 12; ++i) script.push_back(confsync(true, "svc_fn_00"));
  options.scripted_sessions = {script};
  const ScenarioResult result = run_scenario(options);

  ASSERT_EQ(result.sessions.size(), 1u);
  EXPECT_EQ(result.windows.size(), 13u);
  EXPECT_EQ(result.sub_drops, 0u);
  // Both subscriptions are live over the 11 windows after they arrive.
  EXPECT_EQ(result.sessions[0].deltas, 22u);
  EXPECT_EQ(result.status_counts.count(Status::kTimeout), 0u);
}

TEST(Service, SubscribingToNothingIsAnError) {
  ScenarioOptions options = small_options();
  options.scripted_sessions = {{subscribe("no_such_fn_*")}};
  const ScenarioResult result = run_scenario(options);
  ASSERT_EQ(result.sessions.size(), 1u);
  EXPECT_EQ(result.sessions[0].commands[1].status, Status::kError);
  EXPECT_EQ(result.sessions[0].deltas, 0u);
}

TEST(Service, MalformedAndEmptyCommandsGetTheirAnswers) {
  ScenarioOptions options = small_options();
  Request empty_confsync;
  empty_confsync.kind = CommandKind::kConfsync;
  options.scripted_sessions = {{instrument({"svc_fn_00", "no_such_fn"}), empty_confsync}};
  const ScenarioResult result = run_scenario(options);
  ASSERT_EQ(result.sessions.size(), 1u);
  const auto& commands = result.sessions[0].commands;
  ASSERT_EQ(commands.size(), 4u);  // attach, the two commands, detach
  EXPECT_EQ(commands[1].status, Status::kError);  // an unknown name is malformed
  EXPECT_EQ(commands[2].status, Status::kOk);     // nothing to stage: answered at once
}

TEST(Service, AnInstrumentThatCannotFitIsDeniedAtOnceWithoutAQueue) {
  ScenarioOptions options = small_options();
  options.service.budget_fraction = 1e-9;  // not even the residual fits
  options.service.queue_timeout = 0;       // fail fast
  options.scripted_sessions = {{instrument({"svc_fn_00"})}};
  const ScenarioResult result = run_scenario(options);
  ASSERT_EQ(result.sessions.size(), 1u);
  EXPECT_EQ(result.sessions[0].commands[1].status, Status::kDenied);
  EXPECT_EQ(result.status_counts.count(Status::kTimeout), 0u);
}

TEST(Service, AQueuedInstrumentIsDeniedWhenItsQueueTimeoutPasses) {
  ScenarioOptions options = small_options();
  options.session_nodes = 0;  // every session on the tool node
  options.service.budget_fraction = 1e-9;
  options.service.queue_timeout = sim::milliseconds(1);
  options.service.max_session_inflight = 8;  // counts the queue per session
  options.scripted_sessions = {{instrument({"svc_fn_00"})}, {instrument({"svc_fn_01"})}};
  const ScenarioResult result = run_scenario(options);
  ASSERT_EQ(result.sessions.size(), 2u);
  for (const auto& session : result.sessions) {
    EXPECT_EQ(session.commands[1].status, Status::kDenied);
  }
  EXPECT_EQ(result.status_counts.count(Status::kTimeout), 0u);
  EXPECT_EQ(result.status_counts.count(Status::kShed), 0u);
}

TEST(Service, AfterShutdownOnlyReportsAndDetachesAreServed) {
  // run_scenario shuts down only once every session has detached, so drive
  // a ControlService directly and submit after initiate_shutdown.
  const asci::AppSpec app = make_svcapp(8);
  dynprof::Launch::Options launch_options;
  launch_options.app = &app;
  launch_options.params.nprocs = 2;
  launch_options.policy = dynprof::Policy::kDynamic;
  dynprof::PolicyRun run(std::move(launch_options));
  run.arm();
  ControlService service(run.launch(), *run.tool(), ServiceOptions{});
  std::vector<Response> responses;
  service.register_session(1, service.node(),
                           [&responses](const Response& r) { responses.push_back(r); });
  service.initiate_shutdown("svcapp_run");
  Request late = instrument({"svc_fn_00"});
  late.session = 1;
  late.seq = 1;
  late.client_node = service.node();
  service.submit(late);
  Request detach;
  detach.kind = CommandKind::kDetach;
  detach.session = 1;
  detach.seq = 2;
  detach.client_node = service.node();
  service.submit(detach);
  run.launch().engine().run_until_blocked();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, Status::kShutdown);
  EXPECT_EQ(responses[1].status, Status::kOk);
}

TEST(Service, ShutdownAnswersEveryQueuedInstrument) {
  // A request waiting for headroom when the service shuts down is answered
  // kShutdown at once, not left to its queue timeout.
  const asci::AppSpec app = make_svcapp(8);
  dynprof::Launch::Options launch_options;
  launch_options.app = &app;
  launch_options.params.nprocs = 2;
  launch_options.policy = dynprof::Policy::kDynamic;
  dynprof::PolicyRun run(std::move(launch_options));
  run.arm();
  ServiceOptions service_options;
  service_options.budget_fraction = 1e-9;  // every instrument is denied and queued
  ControlService service(run.launch(), *run.tool(), service_options);
  std::vector<Response> responses;
  service.register_session(1, service.node(),
                           [&responses](const Response& r) { responses.push_back(r); });
  Request queued = instrument({"svc_fn_00"});
  queued.session = 1;
  queued.seq = 1;
  queued.client_node = service.node();
  service.submit(queued);
  EXPECT_EQ(service.admission_evals(), 1u);
  service.initiate_shutdown("svcapp_run");
  run.launch().engine().run_until_blocked();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].seq, 1u);
  EXPECT_EQ(responses[0].status, Status::kShutdown);
}

TEST(Service, OnlyRegisteredSessionsAreServed) {
  // Session state lives in tables indexed by session id: an id past the
  // bound is refused at registration, and a request from an id that was
  // never registered has nobody to answer, so it changes nothing.
  const asci::AppSpec app = make_svcapp(8);
  dynprof::Launch::Options launch_options;
  launch_options.app = &app;
  launch_options.params.nprocs = 2;
  launch_options.policy = dynprof::Policy::kDynamic;
  dynprof::PolicyRun run(std::move(launch_options));
  run.arm();
  ControlService service(run.launch(), *run.tool(), ServiceOptions{});
  EXPECT_THROW(service.register_session(kMaxSessionId + 1, service.node(), [](const Response&) {}),
               Error);
  EXPECT_THROW(service.register_session(kServiceSession, service.node(), [](const Response&) {}),
               Error);
  std::vector<Response> responses;
  service.register_session(2, service.node(),
                           [&responses](const Response& r) { responses.push_back(r); });
  for (const SessionId stranger : {SessionId{0}, SessionId{7}}) {
    Request request = instrument({"svc_fn_00"});
    request.session = stranger;
    request.seq = 1;
    request.client_node = service.node();
    service.submit(request);
  }
  Request report_request = report();
  report_request.session = 2;
  report_request.seq = 1;
  report_request.client_node = service.node();
  service.submit(report_request);
  service.initiate_shutdown("svcapp_run");
  run.launch().engine().run_until_blocked();
  EXPECT_EQ(service.admission_evals(), 0u);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].session, 2u);
  EXPECT_EQ(responses[0].status, Status::kOk);
}

// Satellite 3: two sessions stage conflicting filter updates for the same
// safe point.  Session 0's directive is its *second* command (a report
// pads its script), so it reaches the service *after* session 1's -- yet
// the break agent merges pending programs in (session, seq) order, so
// session 1's directive is applied later and wins.  Image state ==
// session-id-order application, independent of arrival order.
TEST(Service, ConflictingConfsyncsSerializeInSessionIdOrder) {
  ScenarioOptions options = small_options();
  options.session_stagger = 0;
  options.confsync_interval = 16;  // one wide window catches both
  const image::FunctionId fn = fn_id(options.functions, "svc_fn_00");

  // Variant A: s0 deactivates (arrives last), s1 activates.  s1 wins.
  options.scripted_sessions = {{report(), confsync(false, "svc_fn_00")},
                               {confsync(true, "svc_fn_00")}};
  const ScenarioResult a = run_scenario(options);
  EXPECT_EQ(a.status_counts.count(Status::kTimeout), 0u);
  EXPECT_FALSE(deactivated(a, fn));

  // Variant B: the mirror image -- s1 deactivates and wins.
  options.scripted_sessions = {{confsync(true, "svc_fn_00")},
                               {report(), confsync(false, "svc_fn_00")}};
  const ScenarioResult b = run_scenario(options);
  EXPECT_EQ(b.status_counts.count(Status::kTimeout), 0u);
  EXPECT_TRUE(deactivated(b, fn));
}

// A response timeout short enough to fire: patching instruments and
// safe-point confsyncs take 40-230 ms here.  Every timed-out command is
// answered kTimeout at exactly its deadline, and the digests, counts and
// timed-out commands are pinned from the driver that armed one engine
// timer per wait, so a timeout fires at the same simulated time and in
// the same order relative to other events as that driver's did.  The
// lock-step cell has the shape of the 10k-session bench; the batched,
// pipelined cell re-waits on older fronts and gets late acks for
// earlier batch entries.
TEST(Service, FiredResponseTimeoutsKeepTheirTimeAndOrder) {
  struct TimedOut {
    SessionId session;
    std::size_t index;
  };
  struct Cell {
    sim::TimeNs timeout;
    int batch;
    int depth;
    std::uint64_t digest;
    std::map<Status, std::uint64_t> counts;
    std::vector<TimedOut> timed_out;
  };
  const Cell cells[] = {
      {sim::milliseconds(100), 1, 1, 0xeb05576d89f722aaull,
       {{Status::kOk, 46}, {Status::kAdmitted, 4}, {Status::kDegraded, 3}, {Status::kTimeout, 8}},
       {{3, 1}, {4, 2}, {5, 2}, {6, 4}, {7, 2}, {8, 3}, {9, 4}, {10, 3}}},
      {sim::milliseconds(60), 4, 2, 0x8f5f9ecf84e90ec5ull,
       {{Status::kOk, 49}, {Status::kAdmitted, 3}, {Status::kTimeout, 16}},
       {{1, 4}, {2, 4}, {3, 1}, {3, 4}, {4, 2}, {4, 3}, {5, 2}, {6, 3}, {6, 4}, {7, 1},
        {7, 2}, {8, 1}, {8, 3}, {9, 4}, {10, 4}, {11, 1}}},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.batch);
    ScenarioOptions options = small_options();
    options.response_timeout = cell.timeout;
    options.session_batch = cell.batch;
    options.pipeline_depth = cell.depth;
    const ScenarioResult result = run_scenario(options);
    EXPECT_EQ(result.digest, cell.digest);
    EXPECT_EQ(result.status_counts, cell.counts);
    std::vector<std::pair<SessionId, std::size_t>> timed_out;
    for (const auto& session : result.sessions) {
      for (std::size_t i = 0; i < session.commands.size(); ++i) {
        if (session.commands[i].status != Status::kTimeout) continue;
        timed_out.emplace_back(session.id, i);
        EXPECT_EQ(session.commands[i].latency, cell.timeout);
      }
    }
    std::vector<std::pair<SessionId, std::size_t>> expected;
    for (const TimedOut& t : cell.timed_out) expected.emplace_back(t.session, t.index);
    EXPECT_EQ(timed_out, expected);
  }
}

TEST(Service, DigestIsIdenticalAcrossSimThreads) {
  ScenarioOptions options = small_options();
  options.sessions = 40;
  options.functions = 16;
  options.session_nodes = 8;
  // Run-to-run identity.
  const ScenarioResult first = run_scenario(options);
  const ScenarioResult again = run_scenario(options);
  EXPECT_EQ(first.digest, again.digest);
  EXPECT_EQ(first.stats_digest, again.stats_digest);
  EXPECT_EQ(first.commands, again.commands);
}

// Queue-heavy: 2k closed-loop sessions against the default 5% budget keep
// instrument requests waiting for headroom, retried at every detach and
// window.  Retrying only what the pricing epoch says could have changed
// keeps admission work at a few evaluations per instrument command, and
// every outcome is the one full re-evaluation of the queue produced: the
// digest is pinned from that implementation.
TEST(Service, QueuedRetriesCostAFewEvaluationsPerCommand) {
  ScenarioOptions options;
  options.sessions = 2'000;
  const ScenarioResult result = run_scenario(options);

  std::uint64_t instruments = 0;
  for (const auto& session : result.sessions) {
    for (const auto& command : session.commands) {
      instruments += command.kind == CommandKind::kInstrument ? 1 : 0;
    }
  }
  ASSERT_GT(instruments, 0u);
  // Re-evaluating the whole queue on every retry pass took ~190
  // evaluations per instrument command here.
  EXPECT_LE(result.admission_evals, 4 * instruments);
  // A retry pass runs only when the pricing epoch moved or a queued entry
  // expired; walking the whole queue at every detach and window visited
  // tens of entries per command.
  EXPECT_LE(result.queue_visits, result.commands);
  EXPECT_EQ(result.commands, 2'000u * 6u);
  EXPECT_TRUE(result.budget_ok);
  EXPECT_EQ(result.digest, 0x4c3d22aa3de55008ull);
}

}  // namespace
}  // namespace dyntrace::service
