// End-to-end ControlService behaviour through the scenario harness: session
// lifecycle over generated scripts, pushed-down subscription deltas, the
// satellite serialization guarantee (conflicting confsyncs at one safe
// point apply in session-id order, not arrival order), and run-to-run
// determinism of the full service stack.
#include "service/scenario.hpp"

#include <algorithm>
#include <gtest/gtest.h>

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

TEST(Service, SubscribingToNothingIsAnError) {
  ScenarioOptions options = small_options();
  options.scripted_sessions = {{subscribe("no_such_fn_*")}};
  const ScenarioResult result = run_scenario(options);
  ASSERT_EQ(result.sessions.size(), 1u);
  EXPECT_EQ(result.sessions[0].commands[1].status, Status::kError);
  EXPECT_EQ(result.sessions[0].deltas, 0u);
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
  EXPECT_EQ(result.commands, 2'000u * 6u);
  EXPECT_TRUE(result.budget_ok);
  EXPECT_EQ(result.digest, 0x4c3d22aa3de55008ull);
}

}  // namespace
}  // namespace dyntrace::service
