// Service x fault-matrix cell: a daemon death under live session traffic
// surfaces as explicit kDaemonLost responses (with the lost ranks reported)
// -- never a hang -- and the run stays deterministic across shard counts.
#include <gtest/gtest.h>

#include <algorithm>

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

// All 8 ranks sit on node 0 (8 cpus/node); its daemon dies while the
// staggered sessions are still issuing patches, so at least one in-flight
// batch is abandoned.  The death time sits inside the session traffic
// window: attach completes around t=30.7s (dpcl connect+parse for 8
// processes dominates) and the 300ms-staggered scripts stretch patching to
// about t=33s.
ScenarioOptions faulty_options() {
  ScenarioOptions options;
  options.ranks = 8;
  options.functions = 16;
  options.session_nodes = 4;
  options.seed = 11;
  options.session_stagger = sim::milliseconds(300);
  options.scripted_sessions.resize(8);
  for (int i = 0; i < 8; ++i) {
    char name[16];
    std::snprintf(name, sizeof name, "svc_fn_%02d", (2 * i) % 16);
    char other[16];
    std::snprintf(other, sizeof other, "svc_fn_%02d", (2 * i + 1) % 16);
    options.scripted_sessions[i] = {instrument({name}), instrument({other})};
  }
  options.fault = std::make_shared<fault::FaultInjector>(
      fault::FaultPlan::parse("kill-daemon node=0 at=31500ms\n"));
  return options;
}

std::uint64_t count(const ScenarioResult& result, Status status) {
  const auto it = result.status_counts.find(status);
  return it != result.status_counts.end() ? it->second : 0;
}

TEST(ServiceFaults, DaemonDeathYieldsDaemonLostNotHangs) {
  const ScenarioResult result = run_scenario(faulty_options());

  // The run completed: every scripted session got an answer for every
  // command (the whole point -- errors, not deadlocks).
  ASSERT_EQ(result.sessions.size(), 8u);
  for (const auto& session : result.sessions) {
    ASSERT_EQ(session.commands.size(), 4u);  // attach, 2 instruments, detach
    for (const auto& command : session.commands) {
      EXPECT_NE(command.status, Status::kTimeout);
    }
  }
  // The batch in flight when node 0 was abandoned reported the loss.
  EXPECT_GE(count(result, Status::kDaemonLost), 1u);
  // All 8 ranks lived on the dead node.
  EXPECT_EQ(result.lost_ranks.size(), 8u);
}

TEST(ServiceFaults, FaultCellIsDeterministicAcrossSimThreads) {
  // Run-to-run identity under the daemon-kill plan.
  const ScenarioResult first = run_scenario(faulty_options());
  const ScenarioResult again = run_scenario(faulty_options());
  EXPECT_EQ(first.digest, again.digest);
  EXPECT_EQ(count(first, Status::kDaemonLost), count(again, Status::kDaemonLost));
}

}  // namespace
}  // namespace dyntrace::service
