// FaultPlan parsing and the injector's deterministic decision functions.
//
// The whole harness rests on two properties checked here: (1) plans are
// plain text whose every key lands in its field, and (2) every fault
// decision is a pure function of (seed, action, message identity) -- two
// injectors built from the same plan agree decision for decision, no
// matter what else happened in between.
#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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

/// Every field of a parsed action on one line (`where` aside), to compare
/// against a literal: a key the parser drops or misroutes shows up here.
std::string fields(const FaultAction& a) {
  std::ostringstream out;
  out << "kind=" << static_cast<int>(a.kind) << " channel=" << static_cast<int>(a.channel)
      << " job=" << a.job << " node=" << a.node << " rank=" << a.rank << " src=" << a.src
      << " dst=" << a.dst << " at=" << a.at << " until=";
  if (a.until == kNever) {
    out << "never";
  } else {
    out << a.until;
  }
  out << " prob=" << a.probability << " nth=" << a.nth << " skip=" << a.skip
      << " count=" << a.count << " factor=" << a.factor << " spill=" << a.spill
      << " keep=" << a.keep << " period=" << a.period << " downtime=" << a.downtime
      << " sessions=" << a.sessions;
  return out.str();
}

TEST(FaultPlan, ParsesEveryVerb) {
  // Field for field across every verb, so a dropped or misrouted key fails
  // even where the action count still matches.
  const FaultPlan plan = FaultPlan::parse(kFullPlan);
  EXPECT_EQ(plan.seed, 42u);
  const std::vector<std::string> expected{
      "kind=0 channel=0 job= node=3 rank=-1 src=-1 dst=-1 at=150000000000 until=never "
      "prob=-1 nth=-1 skip=0 count=-1 factor=10 spill=0 keep=0.5 period=0 downtime=0 "
      "sessions=0",
      "kind=1 channel=0 job= node=-1 rank=5 src=-1 dst=-1 at=2500000000 until=never "
      "prob=-1 nth=-1 skip=0 count=-1 factor=10 spill=0 keep=0.5 period=0 downtime=0 "
      "sessions=0",
      "kind=2 channel=0 job= node=-1 rank=-1 src=-1 dst=-1 at=0 until=never "
      "prob=0.05 nth=-1 skip=0 count=-1 factor=10 spill=0 keep=0.5 period=0 downtime=0 "
      "sessions=0",
      "kind=2 channel=1 job= node=-1 rank=-1 src=3 dst=0 at=0 until=never "
      "prob=-1 nth=0 skip=0 count=-1 factor=10 spill=0 keep=0.5 period=0 downtime=0 "
      "sessions=0",
      "kind=3 channel=1 job= node=-1 rank=-1 src=-1 dst=-1 at=0 until=never "
      "prob=0.5 nth=-1 skip=0 count=-1 factor=10 spill=0 keep=0.5 period=0 downtime=0 "
      "sessions=0",
      "kind=4 channel=0 job= node=-1 rank=-1 src=-1 dst=-1 at=0 until=never "
      "prob=-1 nth=-1 skip=2 count=4 factor=10 spill=0 keep=0.5 period=0 downtime=0 "
      "sessions=0",
      "kind=5 channel=0 job= node=2 rank=-1 src=-1 dst=-1 at=10000000000 until=20000000000 "
      "prob=-1 nth=-1 skip=0 count=-1 factor=4 spill=0 keep=0.5 period=0 downtime=0 "
      "sessions=0",
      "kind=6 channel=0 job= node=-1 rank=7 src=-1 dst=-1 at=0 until=never "
      "prob=-1 nth=-1 skip=0 count=-1 factor=10 spill=0 keep=0.5 period=0 downtime=0 "
      "sessions=0",
      "kind=7 channel=0 job= node=4 rank=-1 src=-1 dst=-1 at=100000000000 until=400000000000 "
      "prob=-1 nth=-1 skip=0 count=-1 factor=10 spill=0 keep=0.5 period=30000000000 "
      "downtime=5000000000 sessions=0",
      "kind=8 channel=0 job= node=6 rank=-1 src=-1 dst=-1 at=10000000000 until=20000000000 "
      "prob=-1 nth=-1 skip=0 count=-1 factor=8 spill=0 keep=0.5 period=0 downtime=0 "
      "sessions=0",
      "kind=9 channel=0 job= node=-1 rank=-1 src=-1 dst=-1 at=35000000000 until=never "
      "prob=-1 nth=-1 skip=0 count=-1 factor=10 spill=0 keep=0.5 period=0 downtime=0 "
      "sessions=16",
  };
  ASSERT_EQ(plan.actions.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fields(plan.actions[i]), expected[i]) << i;
  }
  EXPECT_EQ(plan.actions[2].kind, FaultAction::Kind::kDrop);
  EXPECT_EQ(plan.actions[3].channel, Channel::kOverlay);
  EXPECT_EQ(plan.actions[10].kind, FaultAction::Kind::kStorm);
}

TEST(FaultPlan, TextRoundTrips) {
  // Plan text written to a file and loaded back (the CLI's --fault-plan
  // path) must parse to the same plan, field for field across every verb.
  const std::string path = ::testing::TempDir() + "/fault_plan_roundtrip.txt";
  {
    std::ofstream out(path);
    out << kFullPlan;
  }
  const FaultPlan plan = FaultPlan::parse(kFullPlan);
  const FaultPlan again = FaultPlan::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(again.seed, plan.seed);
  ASSERT_EQ(again.actions.size(), plan.actions.size());
  for (std::size_t i = 0; i < plan.actions.size(); ++i) {
    EXPECT_EQ(fields(again.actions[i]), fields(plan.actions[i])) << i;
    EXPECT_EQ(again.actions[i].where, path + ":" + std::to_string(i + 3)) << i;
  }
  EXPECT_THROW(FaultPlan::load(path), Error);  // gone: fails closed
}

TEST(FaultPlan, SubMillisecondTimesAndTheAppChannelParse) {
  const FaultPlan plan = FaultPlan::parse(
      "kill-rank rank=1 at=1500us\n"
      "kill-rank rank=2 at=7\n"
      "drop channel=app prob=0.5\n");
  ASSERT_EQ(plan.actions.size(), 3u);
  EXPECT_EQ(plan.actions[0].at, sim::microseconds(1500));
  EXPECT_EQ(plan.actions[1].at, 7);  // no unit: nanoseconds
  EXPECT_EQ(plan.actions[2].channel, Channel::kApp);
  EXPECT_DOUBLE_EQ(plan.actions[2].probability, 0.5);
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

TEST(FaultPlan, TimesFailClosed) {
  // Times whose nanoseconds do not fit TimeNs used to reach a float->int64
  // cast (undefined behaviour); negative plan times used to be accepted.
  for (const char* text : {"kill-daemon node=1 at=1e30s\n", "kill-rank rank=1 at=1e300ns\n",
                           "kill-daemon node=1 at=9223372037s\n",
                           "kill-daemon node=1 at=-5s\n",
                           "stall node=1 from=-1ms until=5s factor=2\n",
                           "kill-daemon node=1 at=1x5s\n", "kill-daemon node=1 at=s\n"}) {
    try {
      FaultPlan::parse(std::string("seed 1\n") + text, "times.plan");
      FAIL() << "expected a parse error for " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("times.plan:2"), std::string::npos) << e.what();
    }
  }
  // The largest representable values and "never" still parse.
  EXPECT_EQ(FaultPlan::parse("kill-daemon node=1 at=9223372036s\n").actions[0].at,
            sim::TimeNs{9'223'372'036'000'000'000});
  EXPECT_EQ(FaultPlan::parse("stall node=1 from=0s until=never factor=2\n").actions[0].until,
            kNever);
}

TEST(FaultPlan, IntegersFailClosed) {
  // Integers once went through std::stoll/stoull: trailing junk was
  // ignored, int fields narrowed silently (node=4294967297 killed node 1),
  // seed -1 wrapped to 2^64-1, and a negative skip= disabled a prob= action.
  for (const char* text :
       {"kill-daemon node=4294967297 at=5s\n", "kill-daemon node=1junk at=5s\n",
        "kill-rank rank=2147483648\n", "drop channel=app src=-2147483649 prob=1\n",
        "drop channel=daemon nth=3x\n", "drop channel=daemon nth=-2\n",
        "drop channel=daemon prob=0.5 skip=-1\n", "dup channel=daemon skip=2 count=-3\n",
        "drop channel=daemon prob=0.5x\n", "tear-shard rank=1 spill=-1\n",
        "storm sessions=4x at=1s\n", "seed 12abc\n", "seed -1\n",
        "seed 18446744073709551616\n"}) {
    try {
      FaultPlan::parse(std::string("seed 1\n") + text, "ints.plan");
      FAIL() << "expected a parse error for " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("ints.plan:2"), std::string::npos) << e.what();
    }
  }
  // The extremes that are representable still parse.
  EXPECT_EQ(FaultPlan::parse("seed 18446744073709551615\n").seed, ~std::uint64_t{0});
  EXPECT_EQ(FaultPlan::parse("kill-daemon node=2147483647\n").actions[0].node, 2147483647);
  EXPECT_EQ(FaultPlan::parse("drop channel=app src=-1 prob=1\n").actions[0].src, -1);
}

TEST(FaultPlan, CrlfLinesParseLikeLf) {
  // Plans share the replay reader's whitespace split, '\r' included.
  const FaultPlan crlf = FaultPlan::parse("seed 9\r\nkill-daemon node=2 at=5s\r\n");
  const FaultPlan lf = FaultPlan::parse("seed 9\nkill-daemon node=2 at=5s\n");
  EXPECT_EQ(crlf.seed, 9u);
  EXPECT_EQ(crlf.seed, lf.seed);
  ASSERT_EQ(crlf.actions.size(), 1u);
  ASSERT_EQ(lf.actions.size(), 1u);
  EXPECT_EQ(fields(crlf.actions[0]), fields(lf.actions[0]));
  EXPECT_EQ(crlf.actions[0].node, 2);
}

TEST(FaultInjector, WindowAtTheInt64LimitDoesNotOverflow) {
  // skip + count once overflowed (undefined behaviour); the window is now
  // compared as an offset, so a window that starts past every reachable
  // ordinal matches nothing and one starting at 0 matches everything.
  FaultInjector far(FaultPlan::parse(
      "drop channel=daemon skip=9223372036854775807 count=9223372036854775807\n"));
  FaultInjector open(FaultPlan::parse("drop channel=daemon skip=0 count=9223372036854775807\n"));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(far.message_fate(Channel::kDaemon, 0, 1, 0).drop) << i;
    EXPECT_TRUE(open.message_fate(Channel::kDaemon, 0, 1, 0).drop) << i;
  }
  FaultInjector window(FaultPlan::parse("drop channel=daemon skip=3 count=2\n"));
  std::vector<bool> drops;
  for (int i = 0; i < 7; ++i) drops.push_back(window.message_fate(Channel::kDaemon, 0, 1, 0).drop);
  EXPECT_EQ(drops, (std::vector<bool>{false, false, false, true, true, false, false}));
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

TEST(FaultPlan, JobScopedVerbsParse) {
  const FaultPlan plan = FaultPlan::parse(
      "kill-rank rank=3 at=2s job=back\n"
      "tear-shard rank=1 spill=0 keep=0.5 job=front\n"
      "kill-rank rank=3 at=2s\n");
  ASSERT_EQ(plan.actions.size(), 3u);
  EXPECT_EQ(plan.actions[0].job, "back");
  EXPECT_EQ(plan.actions[1].job, "front");
  EXPECT_TRUE(plan.actions[2].job.empty());
  EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::kKillRank);
  EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::kTearShard);
  EXPECT_EQ(plan.actions[1].rank, 1);
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

TEST(RunReport, EntriesThatTieOnEverythingElseSortByRanks) {
  RunReport report;
  report.add(sim::seconds(1), "rank-lost", "node=1", {5});
  report.add(sim::seconds(1), "rank-lost", "node=1", {4});
  const auto entries = report.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].ranks, std::vector<int>{4});
  EXPECT_EQ(entries[1].ranks, std::vector<int>{5});
}

}  // namespace
}  // namespace dyntrace::fault
