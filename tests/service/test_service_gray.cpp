// Gray-failure resilience of the control service (DESIGN.md §14): the
// service must stay live -- every command answered, deterministically --
// while a daemon flaps, sessions storm in, queues hit their bounds, and
// subscribers stop draining.  These are the CI liveness gates for the
// fault-matrix gray column.
#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "service/scenario.hpp"

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

std::uint64_t count(const ScenarioResult& result, Status status) {
  const auto it = result.status_counts.find(status);
  return it != result.status_counts.end() ? it->second : 0;
}

// All 8 ranks sit on node 0; its daemon flaps dead for 70s starting while
// the staggered sessions are still patching (attach lands ~30.7s and their
// scripts stretch to ~33s), long enough for the full deadline x retry
// schedule to miss and open the breaker.
ScenarioOptions flapping_options() {
  ScenarioOptions options;
  options.ranks = 8;
  options.functions = 16;
  options.session_nodes = 4;
  options.seed = 11;
  options.session_stagger = sim::milliseconds(300);
  options.scripted_sessions.resize(6);
  for (int i = 0; i < 6; ++i) {
    char name[16];
    std::snprintf(name, sizeof name, "svc_fn_%02d", (2 * i) % 16);
    char other[16];
    std::snprintf(other, sizeof other, "svc_fn_%02d", (2 * i + 1) % 16);
    options.scripted_sessions[i] = {instrument({name}), instrument({other})};
  }
  options.fault = std::make_shared<fault::FaultInjector>(fault::FaultPlan::parse(
      "flap-daemon node=0 period=200s downtime=70s from=31500ms\n"));
  return options;
}

TEST(ServiceGray, FlappingDaemonQuarantinesButServiceStaysLive) {
  const ScenarioOptions options = flapping_options();
  const ScenarioResult result = run_scenario(options);

  // Liveness: every scripted session got an answer for every command.
  ASSERT_EQ(result.sessions.size(), 6u);
  for (const auto& session : result.sessions) {
    ASSERT_EQ(session.commands.size(), 4u);  // attach, 2 instruments, detach
    for (const auto& command : session.commands) {
      EXPECT_NE(command.status, Status::kTimeout);
    }
  }
  // A flapping daemon is sick, not dead: the breaker opens and quarantines
  // its node, but nothing is abandoned and no ranks are reported lost.
  EXPECT_EQ(count(result, Status::kDaemonLost), 0u);
  EXPECT_TRUE(result.lost_ranks.empty());
  const std::string report = options.fault->report().render();
  EXPECT_NE(report.find("breaker-open"), std::string::npos);
}

TEST(ServiceGray, FlappingCellIsDeterministicAcrossSimThreads) {
  // Run-to-run identity under the flap plan.
  const ScenarioResult first = run_scenario(flapping_options());
  const ScenarioResult again = run_scenario(flapping_options());
  EXPECT_EQ(first.digest, again.digest);
  EXPECT_EQ(first.commands, again.commands);
}

TEST(ServiceGray, StormBurstsExtraSessionsDeterministically) {
  ScenarioOptions options;
  options.ranks = 4;
  options.functions = 8;
  options.sessions = 4;
  options.session_nodes = 4;
  options.commands_per_session = 2;
  options.seed = 21;
  options.fault = std::make_shared<fault::FaultInjector>(
      fault::FaultPlan::parse("storm sessions=6 at=35s\n"));
  const ScenarioResult result = run_scenario(options);

  // 4 configured sessions plus the 6-session burst, all run to completion.
  EXPECT_EQ(result.storm_sessions, 6u);
  ASSERT_EQ(result.sessions.size(), 10u);
  for (const auto& session : result.sessions) {
    ASSERT_GE(session.commands.size(), 2u);
    EXPECT_EQ(session.commands.back().kind, CommandKind::kDetach);
    for (const auto& command : session.commands) {
      EXPECT_NE(command.status, Status::kTimeout);
    }
  }

  const ScenarioResult again = run_scenario(options);
  EXPECT_EQ(result.digest, again.digest);
}

TEST(ServiceGray, PerSessionInflightBoundShedsPipelinedCommands) {
  ScenarioOptions options;
  options.ranks = 4;
  options.functions = 8;
  options.session_nodes = 2;
  options.seed = 23;
  // One session fires three instruments back-to-back (pipeline depth 3);
  // with at most one deferred command per session the trailing two must be
  // shed immediately -- a deterministic kShed, not a growing backlog.
  options.pipeline_depth = 3;
  options.service.max_session_inflight = 1;
  options.scripted_sessions = {{instrument({"svc_fn_00"}), instrument({"svc_fn_01"}),
                                instrument({"svc_fn_02"})}};
  const ScenarioResult result = run_scenario(options);

  ASSERT_EQ(result.sessions.size(), 1u);
  EXPECT_GE(result.shed_commands, 1u);
  EXPECT_EQ(count(result, Status::kShed), result.shed_commands);
  EXPECT_EQ(count(result, Status::kTimeout), 0u);
  // The session still closes cleanly.
  EXPECT_EQ(result.sessions[0].commands.back().kind, CommandKind::kDetach);
  EXPECT_EQ(result.sessions[0].commands.back().status, Status::kOk);
}

TEST(ServiceGray, QueueBoundShedsAndDeadlineCancelsExpiredWaiters) {
  ScenarioOptions options;
  options.ranks = 4;
  options.functions = 8;
  options.session_nodes = 4;
  options.seed = 29;
  options.session_stagger = 0;
  // An impossible budget denies every instrument, so all three sessions'
  // requests head for the admission queue: one fits the bounded queue, the
  // rest are shed, and the queued one is canceled at the first retry after
  // its end-to-end deadline (long before the 30s legacy queue timeout).
  options.service.budget_fraction = 1e-9;
  options.service.max_queue_depth = 1;
  options.service.request_deadline = sim::seconds(1);
  options.scripted_sessions = {{instrument({"svc_fn_00"})},
                               {instrument({"svc_fn_01"})},
                               {instrument({"svc_fn_02"})}};
  const ScenarioResult result = run_scenario(options);

  ASSERT_EQ(result.sessions.size(), 3u);
  EXPECT_GE(result.shed_commands, 1u);
  EXPECT_GE(result.deadline_cancels, 1u);
  EXPECT_EQ(count(result, Status::kShed), result.shed_commands);
  EXPECT_EQ(count(result, Status::kCanceled), result.deadline_cancels);
  // Every instrument resolved one way or the other -- nothing hung.
  EXPECT_EQ(count(result, Status::kShed) + count(result, Status::kCanceled) +
                count(result, Status::kDenied),
            3u);
  EXPECT_EQ(count(result, Status::kTimeout), 0u);
}

TEST(ServiceGray, SlowSubscriberDropsDeltasInsteadOfBuffering) {
  ScenarioOptions options;
  options.ranks = 4;
  options.functions = 8;
  options.session_nodes = 4;
  options.seed = 31;
  options.service.budget_fraction = 0.5;  // admit fully active
  // A one-delta credit window and a 10s client-side stall per delta: the
  // subscriber cannot return its credit before the next window closes, so
  // later deltas are dropped-and-counted rather than buffered unboundedly.
  options.service.sub_window = 1;
  options.service.sub_client_stall = sim::seconds(10);
  options.scripted_sessions = {{
      instrument({"svc_fn_00", "svc_fn_01", "svc_fn_02"}),
      subscribe("svc_fn_0*"),
      confsync(true, "svc_fn_00"),
      confsync(true, "svc_fn_01"),
      confsync(true, "svc_fn_00"),
      confsync(true, "svc_fn_01"),
  }};
  const ScenarioResult result = run_scenario(options);

  ASSERT_EQ(result.sessions.size(), 1u);
  // The first delta was delivered; at least one later one was dropped.
  EXPECT_GE(result.sessions[0].deltas, 1u);
  EXPECT_GE(result.sub_drops, 1u);
  EXPECT_EQ(count(result, Status::kTimeout), 0u);
}

TEST(ServiceGray, BatchedDriversRunEverySessionToCompletion) {
  ScenarioOptions options;
  options.ranks = 4;
  options.functions = 8;
  options.sessions = 12;
  options.session_nodes = 4;
  options.commands_per_session = 4;
  options.seed = 7;
  options.session_batch = 4;  // 3 driver coroutines, 4 sessions each
  const ScenarioResult result = run_scenario(options);

  ASSERT_EQ(result.sessions.size(), 12u);
  for (const auto& session : result.sessions) {
    ASSERT_EQ(session.commands.size(), 6u);
    EXPECT_EQ(session.commands.front().kind, CommandKind::kAttach);
    EXPECT_EQ(session.commands.back().kind, CommandKind::kDetach);
    for (const auto& command : session.commands) {
      EXPECT_NE(command.status, Status::kTimeout);
    }
  }
  EXPECT_EQ(result.commands, 12u * 6u);

  const ScenarioResult again = run_scenario(options);
  EXPECT_EQ(result.digest, again.digest);
}

}  // namespace
}  // namespace dyntrace::service
