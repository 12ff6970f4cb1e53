// FaultPlan parsing and the injector's deterministic decision functions.
//
// The whole harness rests on two properties checked here: (1) plans are
// plain text that round-trips through parse/to_text, and (2) every fault
// decision is a pure function of (seed, action, message identity) -- two
// injectors built from the same plan agree decision for decision, no
// matter what else happened in between.
#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "support/common.hpp"

namespace dyntrace::fault {
namespace {

constexpr const char* kFullPlan =
    "# exercise every verb\n"
    "seed 42\n"
    "kill-daemon node=3 at=150s\n"
    "kill-rank rank=5 at=2500ms\n"
    "drop channel=daemon prob=0.05\n"
    "drop channel=overlay src=3 dst=0 nth=0\n"
    "dup channel=overlay prob=0.5\n"
    "delay channel=daemon skip=2 count=4 factor=10\n"
    "stall node=2 from=10s until=20s factor=4\n"
    "tear-shard rank=7 spill=0 keep=0.5\n"
    "flap-daemon node=4 period=30s downtime=5s from=100s until=400s\n"
    "degrade-daemon node=6 factor=8 from=10s until=20s\n"
    "storm sessions=16 at=35s\n";

TEST(FaultPlan, ParsesEveryVerb) {
  const FaultPlan plan = FaultPlan::parse(kFullPlan);
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.actions.size(), 11u);
  EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::kKillDaemon);
  EXPECT_EQ(plan.actions[0].node, 3);
  EXPECT_EQ(plan.actions[0].at, sim::seconds(150));
  EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::kKillRank);
  EXPECT_EQ(plan.actions[1].rank, 5);
  EXPECT_EQ(plan.actions[1].at, sim::milliseconds(2500));
  EXPECT_EQ(plan.actions[3].channel, Channel::kOverlay);
  EXPECT_EQ(plan.actions[3].src, 3);
  EXPECT_EQ(plan.actions[3].dst, 0);
  EXPECT_EQ(plan.actions[3].nth, 0);
  EXPECT_EQ(plan.actions[6].kind, FaultAction::Kind::kStall);
  EXPECT_EQ(plan.actions[6].until, sim::seconds(20));
  EXPECT_EQ(plan.actions[7].kind, FaultAction::Kind::kTearShard);
  EXPECT_DOUBLE_EQ(plan.actions[7].keep, 0.5);
  EXPECT_EQ(plan.actions[8].kind, FaultAction::Kind::kFlapDaemon);
  EXPECT_EQ(plan.actions[8].node, 4);
  EXPECT_EQ(plan.actions[8].period, sim::seconds(30));
  EXPECT_EQ(plan.actions[8].downtime, sim::seconds(5));
  EXPECT_EQ(plan.actions[8].at, sim::seconds(100));
  EXPECT_EQ(plan.actions[8].until, sim::seconds(400));
  EXPECT_EQ(plan.actions[9].kind, FaultAction::Kind::kDegradeDaemon);
  EXPECT_EQ(plan.actions[9].node, 6);
  EXPECT_DOUBLE_EQ(plan.actions[9].factor, 8.0);
  EXPECT_EQ(plan.actions[9].until, sim::seconds(20));
  EXPECT_EQ(plan.actions[10].kind, FaultAction::Kind::kStorm);
  EXPECT_EQ(plan.actions[10].sessions, 16);
  EXPECT_EQ(plan.actions[10].at, sim::seconds(35));
}

TEST(FaultPlan, TextRoundTrips) {
  // The round-trip property, field for field across every verb: the parsed
  // form of to_text() must reproduce each action exactly, not just count
  // and re-serialization (which could both mask a dropped key).
  const FaultPlan plan = FaultPlan::parse(kFullPlan);
  const std::string text = plan.to_text();
  const FaultPlan again = FaultPlan::parse(text);
  EXPECT_EQ(again.to_text(), text);
  EXPECT_EQ(again.seed, plan.seed);
  ASSERT_EQ(again.actions.size(), plan.actions.size());
  for (std::size_t i = 0; i < plan.actions.size(); ++i) {
    const FaultAction& a = plan.actions[i];
    const FaultAction& b = again.actions[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.channel, b.channel) << i;
    EXPECT_EQ(a.node, b.node) << i;
    EXPECT_EQ(a.rank, b.rank) << i;
    EXPECT_EQ(a.src, b.src) << i;
    EXPECT_EQ(a.dst, b.dst) << i;
    EXPECT_EQ(a.at, b.at) << i;
    EXPECT_EQ(a.until, b.until) << i;
    EXPECT_DOUBLE_EQ(a.probability, b.probability) << i;
    EXPECT_EQ(a.nth, b.nth) << i;
    EXPECT_EQ(a.skip, b.skip) << i;
    EXPECT_EQ(a.count, b.count) << i;
    EXPECT_DOUBLE_EQ(a.factor, b.factor) << i;
    EXPECT_EQ(a.spill, b.spill) << i;
    EXPECT_DOUBLE_EQ(a.keep, b.keep) << i;
    EXPECT_EQ(a.period, b.period) << i;
    EXPECT_EQ(a.downtime, b.downtime) << i;
    EXPECT_EQ(a.sessions, b.sessions) << i;
  }
}

TEST(FaultPlan, RejectsMalformedInput) {
  EXPECT_THROW(FaultPlan::parse("explode node=1 at=5s\n"), Error);
  EXPECT_THROW(FaultPlan::parse("kill-daemon at=5s\n"), Error);            // missing node=
  EXPECT_THROW(FaultPlan::parse("kill-daemon node=1 when=5s\n"), Error);   // unknown key
  EXPECT_THROW(FaultPlan::parse("kill-daemon node=1 at=5parsecs\n"), Error);
  EXPECT_THROW(FaultPlan::parse("drop channel=daemon\n"), Error);          // no selector
  EXPECT_THROW(FaultPlan::parse("drop channel=smoke prob=1\n"), Error);
  EXPECT_THROW(FaultPlan::parse("drop channel=daemon prob=1.5\n"), Error);
  EXPECT_THROW(FaultPlan::parse("delay channel=daemon prob=1 factor=0.5\n"), Error);
  // Factors must be finite and at most kMaxFactor: a larger one overflows
  // the nanosecond clock once it multiplies a delay.
  EXPECT_THROW(FaultPlan::parse("delay channel=daemon factor=1e300 prob=1.0\n"), Error);
  EXPECT_THROW(FaultPlan::parse("delay channel=daemon factor=inf prob=1.0\n"), Error);
  EXPECT_THROW(FaultPlan::parse("delay channel=daemon factor=nan prob=1.0\n"), Error);
  EXPECT_THROW(FaultPlan::parse("stall node=1 from=5s until=6s factor=1e7\n"), Error);
  EXPECT_THROW(FaultPlan::parse("degrade-daemon node=1 factor=1e300\n"), Error);
  EXPECT_NO_THROW(FaultPlan::parse("delay channel=daemon factor=1e6 prob=1.0\n"));
  EXPECT_THROW(FaultPlan::parse("stall node=1 from=5s until=5s factor=2\n"), Error);
  EXPECT_THROW(FaultPlan::parse("tear-shard rank=1 keep=1.0\n"), Error);
  EXPECT_THROW(FaultPlan::parse("seed banana\n"), Error);
  // Gray-failure verbs: a flap must actually flap (downtime strictly inside
  // the period), a degrade must slow things down, a storm must be nonempty.
  EXPECT_THROW(FaultPlan::parse("flap-daemon node=1 downtime=5s\n"), Error);
  EXPECT_THROW(FaultPlan::parse("flap-daemon node=1 period=10s downtime=10s\n"), Error);
  EXPECT_THROW(FaultPlan::parse("flap-daemon period=10s downtime=2s\n"), Error);
  EXPECT_THROW(FaultPlan::parse("flap-daemon node=1 period=10s downtime=2s "
                                "from=20s until=20s\n"),
               Error);
  EXPECT_THROW(FaultPlan::parse("degrade-daemon node=1 factor=0.5\n"), Error);
  EXPECT_THROW(FaultPlan::parse("degrade-daemon factor=4\n"), Error);
  EXPECT_THROW(FaultPlan::parse("storm sessions=0 at=5s\n"), Error);
}

TEST(FaultInjector, LivenessIsAPureTimeThreshold) {
  FaultInjector injector(FaultPlan::parse(kFullPlan));
  EXPECT_TRUE(injector.daemon_alive(3, sim::seconds(150) - 1));
  EXPECT_FALSE(injector.daemon_alive(3, sim::seconds(150)));
  EXPECT_TRUE(injector.daemon_alive(0, sim::seconds(1000)));
  EXPECT_EQ(injector.daemon_dead_at(3), sim::seconds(150));
  EXPECT_EQ(injector.daemon_dead_at(0), kNever);

  EXPECT_TRUE(injector.rank_alive(5, sim::milliseconds(2499)));
  EXPECT_FALSE(injector.rank_alive(5, sim::milliseconds(2500)));
  EXPECT_EQ(injector.dead_ranks(sim::seconds(1)), std::vector<int>{});
  EXPECT_EQ(injector.dead_ranks(sim::seconds(3)), std::vector<int>{5});
}

TEST(FaultInjector, StallWindowIsHalfOpen) {
  FaultInjector injector(FaultPlan::parse(kFullPlan));
  EXPECT_DOUBLE_EQ(injector.stall_factor(2, sim::seconds(10) - 1), 1.0);
  EXPECT_DOUBLE_EQ(injector.stall_factor(2, sim::seconds(10)), 4.0);
  EXPECT_DOUBLE_EQ(injector.stall_factor(2, sim::seconds(20) - 1), 4.0);
  EXPECT_DOUBLE_EQ(injector.stall_factor(2, sim::seconds(20)), 1.0);
  EXPECT_DOUBLE_EQ(injector.stall_factor(1, sim::seconds(15)), 1.0);
}

TEST(FaultInjector, FlapWindowsRepeatOnThePeriod) {
  // flap-daemon node=4 period=30s downtime=5s from=100s until=400s: dead
  // during [100 + 30k, 100 + 30k + 5) for windows starting inside
  // [100, 400), alive everywhere else -- a pure function of `now`.
  FaultInjector injector(FaultPlan::parse(kFullPlan));
  EXPECT_TRUE(injector.daemon_alive(4, sim::seconds(100) - 1));
  EXPECT_FALSE(injector.daemon_alive(4, sim::seconds(100)));
  EXPECT_FALSE(injector.daemon_alive(4, sim::seconds(105) - 1));
  EXPECT_TRUE(injector.daemon_alive(4, sim::seconds(105)));
  EXPECT_TRUE(injector.daemon_alive(4, sim::seconds(130) - 1));
  EXPECT_FALSE(injector.daemon_alive(4, sim::seconds(130)));  // next period
  EXPECT_FALSE(injector.daemon_alive(4, sim::seconds(132)));
  EXPECT_TRUE(injector.daemon_alive(4, sim::seconds(136)));
  // Past `until` the flap is over, even at a would-be dead phase.
  EXPECT_TRUE(injector.daemon_alive(4, sim::seconds(400)));
  EXPECT_TRUE(injector.daemon_alive(4, sim::seconds(430)));
  // A flapping daemon is not *permanently* dead.
  EXPECT_EQ(injector.daemon_dead_at(4), kNever);
}

TEST(FaultInjector, GrayProneNamesFlapAndDegradeTargets) {
  FaultInjector injector(FaultPlan::parse(kFullPlan));
  EXPECT_TRUE(injector.daemon_gray_prone(4));   // flap target
  EXPECT_TRUE(injector.daemon_gray_prone(6));   // degrade target
  EXPECT_FALSE(injector.daemon_gray_prone(3));  // kill target: crash, not gray
  EXPECT_FALSE(injector.daemon_gray_prone(0));
}

TEST(FaultInjector, DegradeFactorIsWindowedAndCompounds) {
  FaultInjector injector(FaultPlan::parse(kFullPlan));
  EXPECT_DOUBLE_EQ(injector.daemon_degrade_factor(6, sim::seconds(10) - 1), 1.0);
  EXPECT_DOUBLE_EQ(injector.daemon_degrade_factor(6, sim::seconds(10)), 8.0);
  EXPECT_DOUBLE_EQ(injector.daemon_degrade_factor(6, sim::seconds(20) - 1), 8.0);
  EXPECT_DOUBLE_EQ(injector.daemon_degrade_factor(6, sim::seconds(20)), 1.0);
  EXPECT_DOUBLE_EQ(injector.daemon_degrade_factor(5, sim::seconds(15)), 1.0);
  // Overlapping degrade actions on one node multiply together.
  FaultInjector stacked(FaultPlan::parse(
      "degrade-daemon node=1 factor=4 from=10s until=30s\n"
      "degrade-daemon node=1 factor=2 from=20s until=40s\n"));
  EXPECT_DOUBLE_EQ(stacked.daemon_degrade_factor(1, sim::seconds(15)), 4.0);
  EXPECT_DOUBLE_EQ(stacked.daemon_degrade_factor(1, sim::seconds(25)), 8.0);
  EXPECT_DOUBLE_EQ(stacked.daemon_degrade_factor(1, sim::seconds(35)), 2.0);
}

TEST(FaultInjector, StormsAreSortedByTime) {
  FaultInjector injector(FaultPlan::parse(
      "storm sessions=8 at=60s\n"
      "storm sessions=16 at=35s\n"));
  const auto storms = injector.storms();
  ASSERT_EQ(storms.size(), 2u);
  EXPECT_EQ(storms[0], std::make_pair(sim::seconds(35), 16));
  EXPECT_EQ(storms[1], std::make_pair(sim::seconds(60), 8));
  EXPECT_TRUE(FaultInjector(FaultPlan::parse("seed 1\n")).storms().empty());
}

TEST(FaultInjector, MessageFatesReplayIdentically) {
  // Two injectors from the same plan must make the same drop/dup/delay
  // decisions for the same message streams -- the determinism guarantee.
  const FaultPlan plan = FaultPlan::parse(kFullPlan);
  FaultInjector a{FaultPlan(plan)};
  FaultInjector b{FaultPlan(plan)};
  for (int i = 0; i < 200; ++i) {
    const int src = i % 4;
    const int dst = (i + 1) % 4;
    const MessageFate fa = a.message_fate(Channel::kDaemon, src, dst, sim::seconds(i));
    const MessageFate fb = b.message_fate(Channel::kDaemon, src, dst, sim::seconds(i));
    EXPECT_EQ(fa.drop, fb.drop) << i;
    EXPECT_EQ(fa.duplicates, fb.duplicates) << i;
    EXPECT_DOUBLE_EQ(fa.delay_factor, fb.delay_factor) << i;
  }
}

TEST(FaultInjector, NthMatchesExactlyOneMessage) {
  FaultInjector injector(
      FaultPlan::parse("drop channel=overlay src=3 dst=0 nth=1\n"));
  int drops = 0;
  for (int i = 0; i < 10; ++i) {
    if (injector.message_fate(Channel::kOverlay, 3, 0, 0).drop) ++drops;
  }
  EXPECT_EQ(drops, 1);
  // Other (src, dst) streams are untouched.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(injector.message_fate(Channel::kOverlay, 2, 0, 0).drop);
  }
}

TEST(FaultInjector, ProbabilityEdgesAreExact) {
  FaultInjector always(FaultPlan::parse("drop channel=daemon prob=1.0\n"));
  FaultInjector never(FaultPlan::parse("drop channel=daemon prob=0.0\n"));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(always.message_fate(Channel::kDaemon, 0, 1, 0).drop);
    EXPECT_FALSE(never.message_fate(Channel::kDaemon, 0, 1, 0).drop);
  }
  // A channel with no actions never even hashes.
  EXPECT_FALSE(always.message_fate(Channel::kApp, 0, 1, 0).drop);
}

TEST(FaultInjector, SpillBytesTearOnlyTheTargetRun) {
  FaultInjector injector(FaultPlan::parse("tear-shard rank=7 spill=1 keep=0.25\n"));
  EXPECT_EQ(injector.spill_bytes(7, 0, 1000), 1000u);
  EXPECT_EQ(injector.spill_bytes(7, 1, 1000), 250u);
  EXPECT_EQ(injector.spill_bytes(6, 1, 1000), 1000u);
  const auto torn = injector.report().entries_of("shard-torn");
  ASSERT_EQ(torn.size(), 1u);
  EXPECT_EQ(torn[0].ranks, std::vector<int>{7});
}

TEST(FaultPlan, JobScopedVerbsParseAndRoundTrip) {
  const FaultPlan plan = FaultPlan::parse(
      "kill-rank rank=3 at=2s job=back\n"
      "tear-shard rank=1 spill=0 keep=0.5 job=front\n"
      "kill-rank rank=3 at=2s\n");
  ASSERT_EQ(plan.actions.size(), 3u);
  EXPECT_EQ(plan.actions[0].job, "back");
  EXPECT_EQ(plan.actions[1].job, "front");
  EXPECT_TRUE(plan.actions[2].job.empty());
  const std::string text = plan.to_text();
  EXPECT_NE(text.find("job=back"), std::string::npos);
  EXPECT_NE(text.find("job=front"), std::string::npos);
  EXPECT_EQ(FaultPlan::parse(text).to_text(), text);
}

TEST(FaultPlan, TargetsAreRangeCheckedAgainstTheMachine) {
  const std::vector<JobExtent> one_job{{"smg98", 64}};
  try {
    FaultPlan::parse("seed 1\nkill-daemon node=99999 at=5s\n", "bad.plan")
        .check_targets(145, one_job);
    FAIL() << "expected an out-of-range node to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad.plan:2"), std::string::npos) << e.what();
  }
  EXPECT_NO_THROW(FaultPlan::parse("kill-daemon node=144\n").check_targets(145, one_job));
  EXPECT_THROW(FaultPlan::parse("stall node=145 from=1s until=2s factor=2\n")
                   .check_targets(145, one_job),
               Error);
  EXPECT_THROW(FaultPlan::parse("kill-rank rank=64\n").check_targets(145, one_job), Error);
  // Unscoped ranks need to exist in some job, scoped ones in their job;
  // an action naming a job the run does not have stays inert.
  const std::vector<JobExtent> two_jobs{{"front", 4}, {"back", 8}};
  EXPECT_NO_THROW(FaultPlan::parse("kill-rank rank=5\n").check_targets(145, two_jobs));
  EXPECT_THROW(FaultPlan::parse("tear-shard rank=5 job=front\n").check_targets(145, two_jobs),
               Error);
  EXPECT_NO_THROW(
      FaultPlan::parse("kill-rank rank=5 job=elsewhere\n").check_targets(145, two_jobs));
}

TEST(FaultInjector, JobScopedKillsOnlyMatchTheNamedJob) {
  FaultInjector injector(FaultPlan::parse("kill-rank rank=3 at=2s job=back\n"));
  const sim::TimeNs after = sim::seconds(5);
  // The named job loses the rank; other jobs and the unscoped (single-job
  // legacy) query keep it.
  EXPECT_FALSE(injector.rank_alive(3, after, "back"));
  EXPECT_TRUE(injector.rank_alive(3, after, "front"));
  EXPECT_TRUE(injector.rank_alive(3, after));
  EXPECT_TRUE(injector.rank_alive(3, sim::seconds(1), "back"));  // before at=
  EXPECT_EQ(injector.dead_ranks(after, "back"), std::vector<int>{3});
  EXPECT_TRUE(injector.dead_ranks(after, "front").empty());
  EXPECT_TRUE(injector.dead_ranks(after).empty());
}

TEST(FaultInjector, UnscopedKillsMatchEveryJob) {
  FaultInjector injector(FaultPlan::parse("kill-rank rank=3 at=2s\n"));
  const sim::TimeNs after = sim::seconds(5);
  EXPECT_FALSE(injector.rank_alive(3, after));
  EXPECT_FALSE(injector.rank_alive(3, after, "back"));
  EXPECT_FALSE(injector.rank_alive(3, after, "front"));
  EXPECT_EQ(injector.dead_ranks(after, "anything"), std::vector<int>{3});
}

TEST(FaultInjector, JobScopedTearOnlyTearsTheNamedJobsShard) {
  FaultInjector injector(
      FaultPlan::parse("tear-shard rank=7 spill=1 keep=0.25 job=back\n"));
  EXPECT_EQ(injector.spill_bytes(7, 1, 1000, "back"), 250u);
  EXPECT_EQ(injector.spill_bytes(7, 1, 1000, "front"), 1000u);
  EXPECT_EQ(injector.spill_bytes(7, 1, 1000), 1000u);
}

TEST(RunReport, EntriesSortDeterministically) {
  RunReport report;
  report.add(sim::seconds(2), "daemon-lost", "node=1", {2, 3});
  report.add(sim::seconds(1), "partial-sync", "round=0", {5});
  report.add(sim::seconds(2), "degrade", "node=1 Dynamic->None", {2, 3});
  const auto entries = report.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].kind, "partial-sync");
  EXPECT_EQ(entries[1].kind, "daemon-lost");  // time ties break on kind
  EXPECT_EQ(entries[2].kind, "degrade");
  EXPECT_EQ(report.lost_ranks(), (std::vector<int>{2, 3}));
  EXPECT_FALSE(report.render().empty());
}

}  // namespace
}  // namespace dyntrace::fault
