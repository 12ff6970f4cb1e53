// HealthTracker unit tests: the EWMA score, the three-state circuit
// breaker, and the report entries each transition leaves behind
// (DESIGN.md §14).  The tracker is a pure function of the attempt history,
// so every expectation here is exact.
#include "dpcl/health.hpp"

#include <gtest/gtest.h>

#include "fault/report.hpp"
#include "machine/spec.hpp"

namespace dyntrace::dpcl {
namespace {

// Defaults: threshold 3 consecutive misses, score floor 0.2, alpha 0.5,
// latency ref 500ms, cooldown 10s.
machine::FaultTolerance policy() { return machine::FaultTolerance{}; }

constexpr sim::TimeNs kFast = sim::milliseconds(1);

TEST(HealthTracker, BreakerStatesHaveNames) {
  EXPECT_STREQ(to_string(BreakerState::kClosed), "closed");
  EXPECT_STREQ(to_string(BreakerState::kOpen), "open");
  EXPECT_STREQ(to_string(BreakerState::kHalfOpen), "half-open");
  EXPECT_STREQ(to_string(static_cast<BreakerState>(9)), "?");
}

TEST(HealthTracker, FastAcksKeepTheBreakerClosed) {
  HealthTracker tracker(policy(), nullptr);
  for (int i = 0; i < 10; ++i) {
    tracker.record_attempt(2, /*acked=*/true, kFast, sim::seconds(i));
  }
  EXPECT_DOUBLE_EQ(tracker.score(2), 1.0);
  EXPECT_EQ(tracker.state(2), BreakerState::kClosed);
  EXPECT_EQ(tracker.admit(2, sim::seconds(11)), HealthTracker::Admit::kNormal);
  EXPECT_EQ(tracker.node_health(2).acks, 10u);
}

TEST(HealthTracker, UntrackedNodesAreHealthyByDefinition) {
  HealthTracker tracker(policy(), nullptr);
  EXPECT_EQ(tracker.admit(7, sim::seconds(1)), HealthTracker::Admit::kNormal);
  EXPECT_DOUBLE_EQ(tracker.score(7), 1.0);
  EXPECT_EQ(tracker.state(7), BreakerState::kClosed);
  EXPECT_TRUE(tracker.tracked_nodes().empty());
}

TEST(HealthTracker, ConsecutiveMissesOpenTheBreaker) {
  fault::RunReport report;
  HealthTracker tracker(policy(), &report);
  tracker.record_attempt(3, false, 0, sim::seconds(20));
  tracker.record_attempt(3, false, 0, sim::seconds(40));
  EXPECT_EQ(tracker.state(3), BreakerState::kClosed);
  tracker.record_attempt(3, false, 0, sim::seconds(60));
  EXPECT_EQ(tracker.state(3), BreakerState::kOpen);
  EXPECT_EQ(tracker.node_health(3).consecutive_misses, 3);
  EXPECT_EQ(tracker.node_health(3).opens, 1u);
  ASSERT_EQ(report.entries_of("breaker-open").size(), 1u);
}

TEST(HealthTracker, AnAckResetsTheMissStreak) {
  HealthTracker tracker(policy(), nullptr);
  tracker.record_attempt(1, false, 0, sim::seconds(1));
  tracker.record_attempt(1, false, 0, sim::seconds(2));
  tracker.record_attempt(1, true, kFast, sim::seconds(3));
  tracker.record_attempt(1, false, 0, sim::seconds(4));
  tracker.record_attempt(1, true, kFast, sim::seconds(5));
  tracker.record_attempt(1, false, 0, sim::seconds(6));
  // Never three in a row -- and the interleaved acks keep the EWMA score
  // above the floor -- so the breaker stays closed.
  EXPECT_EQ(tracker.state(1), BreakerState::kClosed);
  EXPECT_EQ(tracker.node_health(1).misses, 4u);
}

TEST(HealthTracker, SlowAcksOpenTheBreakerOnScoreAlone) {
  // 25x the reference latency scores 0.04 per ack: 1.0 -> 0.52 -> 0.28 ->
  // 0.16, which crosses the 0.2 floor on the third ack -- the daemon
  // answered every request, yet the breaker must still open.
  fault::RunReport report;
  HealthTracker tracker(policy(), &report);
  const sim::TimeNs slow = sim::milliseconds(500) * 25;
  tracker.record_attempt(5, true, slow, sim::seconds(1));
  tracker.record_attempt(5, true, slow, sim::seconds(2));
  EXPECT_EQ(tracker.state(5), BreakerState::kClosed);
  tracker.record_attempt(5, true, slow, sim::seconds(3));
  EXPECT_EQ(tracker.state(5), BreakerState::kOpen);
  EXPECT_EQ(tracker.node_health(5).consecutive_misses, 0);  // no miss involved
  EXPECT_LT(tracker.score(5), 0.2);
  EXPECT_EQ(report.entries_of("breaker-open").size(), 1u);
}

TEST(HealthTracker, OpenSkipsUntilCooldownThenProbes) {
  fault::RunReport report;
  HealthTracker tracker(policy(), &report);
  for (int i = 0; i < 3; ++i) tracker.record_attempt(2, false, 0, sim::seconds(100));
  ASSERT_EQ(tracker.state(2), BreakerState::kOpen);
  // Inside the 10s cooldown every broadcast quarantines the node in O(1).
  EXPECT_EQ(tracker.admit(2, sim::seconds(101)), HealthTracker::Admit::kSkip);
  EXPECT_EQ(tracker.admit(2, sim::seconds(109)), HealthTracker::Admit::kSkip);
  EXPECT_EQ(tracker.node_health(2).skips, 2u);
  // At the cooldown boundary the next request becomes the half-open probe.
  EXPECT_EQ(tracker.admit(2, sim::seconds(110)), HealthTracker::Admit::kProbe);
  EXPECT_EQ(tracker.state(2), BreakerState::kHalfOpen);
  EXPECT_EQ(tracker.node_health(2).probes, 1u);
  EXPECT_EQ(report.entries_of("breaker-probe").size(), 1u);
  // Half-open is sticky until the probe's outcome lands.
  EXPECT_EQ(tracker.admit(2, sim::seconds(111)), HealthTracker::Admit::kProbe);
}

TEST(HealthTracker, ProbeAckClosesTheBreaker) {
  fault::RunReport report;
  HealthTracker tracker(policy(), &report);
  for (int i = 0; i < 3; ++i) tracker.record_attempt(2, false, 0, sim::seconds(100));
  ASSERT_EQ(tracker.admit(2, sim::seconds(115)), HealthTracker::Admit::kProbe);
  tracker.record_attempt(2, true, kFast, sim::seconds(116));
  EXPECT_EQ(tracker.state(2), BreakerState::kClosed);
  EXPECT_EQ(tracker.node_health(2).closes, 1u);
  EXPECT_EQ(tracker.admit(2, sim::seconds(117)), HealthTracker::Admit::kNormal);
  EXPECT_EQ(report.entries_of("breaker-close").size(), 1u);
}

TEST(HealthTracker, ProbeMissReopensAndRestartsTheCooldown) {
  HealthTracker tracker(policy(), nullptr);
  for (int i = 0; i < 3; ++i) tracker.record_attempt(2, false, 0, sim::seconds(100));
  ASSERT_EQ(tracker.admit(2, sim::seconds(115)), HealthTracker::Admit::kProbe);
  tracker.record_attempt(2, false, 0, sim::seconds(120));
  EXPECT_EQ(tracker.state(2), BreakerState::kOpen);
  EXPECT_EQ(tracker.node_health(2).opens, 2u);
  // The cooldown restarts from the reopen, not the original open.
  EXPECT_EQ(tracker.admit(2, sim::seconds(125)), HealthTracker::Admit::kSkip);
  EXPECT_EQ(tracker.admit(2, sim::seconds(130)), HealthTracker::Admit::kProbe);
}

TEST(HealthTracker, LateStragglersOnlyFeedTheScoreWhileOpen) {
  HealthTracker tracker(policy(), nullptr);
  for (int i = 0; i < 3; ++i) tracker.record_attempt(2, false, 0, sim::seconds(100));
  ASSERT_EQ(tracker.state(2), BreakerState::kOpen);
  // An ack of an attempt begun before the open must not close the breaker:
  // re-admission only ever goes through a half-open probe.
  tracker.record_attempt(2, true, kFast, sim::seconds(101));
  EXPECT_EQ(tracker.state(2), BreakerState::kOpen);
  EXPECT_EQ(tracker.node_health(2).closes, 0u);
}

}  // namespace
}  // namespace dyntrace::dpcl
