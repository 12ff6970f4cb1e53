#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "sim/sync.hpp"
#include "support/common.hpp"

namespace dyntrace::sim {
namespace {

TEST(Engine, TimeAdvancesWithSleep) {
  Engine e;
  TimeNs observed = -1;
  e.spawn(
      [](Engine& eng, TimeNs& out) -> Coro<void> {
        co_await eng.sleep(microseconds(5));
        out = eng.now();
      }(e, observed),
      "sleeper");
  e.run();
  EXPECT_EQ(observed, microseconds(5));
  EXPECT_EQ(e.processes_alive(), 0u);
}

TEST(Engine, NestedCoroutinesReturnValues) {
  Engine e;
  int result = 0;
  auto add = [](Engine& eng, int a, int b) -> Coro<int> {
    co_await eng.sleep(10);
    co_return a + b;
  };
  e.spawn(
      [](Engine& eng, auto& fn, int& out) -> Coro<void> {
        const int x = co_await fn(eng, 2, 3);
        const int y = co_await fn(eng, x, 10);
        out = y;
      }(e, add, result),
      "adder");
  e.run();
  EXPECT_EQ(result, 15);
  EXPECT_EQ(e.now(), 20);
}

TEST(Engine, SpawnedProcessesInterleaveDeterministically) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    e.spawn(
        [](Engine& eng, std::vector<int>& ord, int id) -> Coro<void> {
          for (int step = 0; step < 2; ++step) {
            ord.push_back(id);
            co_await eng.sleep(10);
          }
        }(e, order, i),
        "p");
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(Engine, ExceptionsPropagateFromProcess) {
  Engine e;
  e.spawn(
      [](Engine& eng) -> Coro<void> {
        co_await eng.sleep(5);
        fail("boom at t=5");
      }(e),
      "failing");
  EXPECT_THROW(e.run(), Error);
  EXPECT_EQ(e.now(), 5);
}

TEST(Engine, ExceptionsPropagateThroughNestedCoros) {
  Engine e;
  auto inner = [](Engine& eng) -> Coro<int> {
    co_await eng.sleep(1);
    fail("inner failure");
    co_return 0;
  };
  bool caught = false;
  e.spawn(
      [](Engine& eng, auto& fn, bool& flag) -> Coro<void> {
        try {
          co_await fn(eng);
        } catch (const Error&) {
          flag = true;
        }
      }(e, inner, caught),
      "catcher");
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, ASecondFailureIsReportedAndTheFirstWins) {
  Engine e;
  auto failing = [](Engine& eng, const char* what) -> Coro<void> {
    co_await eng.sleep(5);
    fail(what);
  };
  e.spawn(failing(e, "first"), "a");
  e.spawn(failing(e, "second"), "b");
  // run() stops at the first failure; stepping by hand runs past it.
  testing::internal::CaptureStderr();
  while (e.step()) {
  }
  std::string message;
  try {
    e.run();
  } catch (const Error& error) {
    message = error.what();
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "sim: additional process failure in 'b' (first failure wins)\n");
  EXPECT_EQ(message, "first");
}

TEST(Engine, OversizeCoroutineFramesBypassTheFramePool) {
  Engine e;
  int sum = 0;
  e.spawn(
      [](Engine& eng, int& out) -> Coro<void> {
        // Live across a suspension, so it sits in the frame: past the
        // pool's largest size class.
        std::array<char, 4096> big{};
        big[17] = 3;
        co_await eng.sleep(1);
        for (const char c : big) out += c;
      }(e, sum),
      "big");
  e.run();
  EXPECT_EQ(sum, 3);
}

TEST(Engine, DeadlockDetected) {
  Engine e;
  Trigger never(e);
  e.spawn(
      [](Trigger& t) -> Coro<void> { co_await t.wait(); }(never),
      "stuck-process");
  try {
    e.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& err) {
    EXPECT_NE(std::string(err.what()).find("stuck-process"), std::string::npos);
  }
}

TEST(Engine, DaemonsDoNotCountAsDeadlock) {
  Engine e;
  Trigger never(e);
  e.spawn(
      [](Trigger& t) -> Coro<void> { co_await t.wait(); }(never),
      "daemon", Engine::SpawnOptions{.daemon = true});
  EXPECT_NO_THROW(e.run());
  EXPECT_EQ(e.daemons_alive(), 1u);
}

TEST(Engine, RunUntilBlockedReportsBlockedCount) {
  Engine e;
  Trigger never(e);
  e.spawn([](Trigger& t) -> Coro<void> { co_await t.wait(); }(never), "b1");
  e.spawn([](Trigger& t) -> Coro<void> { co_await t.wait(); }(never), "b2");
  EXPECT_EQ(e.run_until_blocked(), 2u);
}

TEST(Engine, DeadlineStopsTheClock) {
  Engine e;
  e.spawn(
      [](Engine& eng) -> Coro<void> {
        for (int i = 0; i < 100; ++i) co_await eng.sleep(seconds(1));
      }(e),
      "long");
  e.run(seconds(3.5));
  EXPECT_EQ(e.now(), seconds(3.5));
  EXPECT_EQ(e.processes_alive(), 1u);
}

TEST(Engine, YieldRunsAfterEventsAtSameTime) {
  Engine e;
  std::vector<int> order;
  e.spawn(
      [](Engine& eng, std::vector<int>& ord) -> Coro<void> {
        ord.push_back(1);
        co_await eng.yield();
        ord.push_back(3);
      }(e, order),
      "yielder");
  e.spawn(
      [](std::vector<int>& ord) -> Coro<void> {
        ord.push_back(2);
        co_return;
      }(order),
      "other");
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, ScheduleAtAndCancel) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_at(100, [&] { ran = true; });
  e.schedule_at(50, [&, id] { e.cancel(id); });
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.now(), 50);
}

TEST(Engine, EventsExecutedCounter) {
  Engine e;
  e.schedule_at(1, [] {});
  e.schedule_at(2, [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 2u);
}

// --- in-place wake-ups (Engine::advance_if_next) ----------------------------

TEST(Engine, WakeUpStrictlyBeforeEveryPendingEventRunsInPlace) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] { order.push_back(2); });
  e.spawn(
      [](Engine& eng, std::vector<int>& ord) -> Coro<void> {
        co_await eng.sleep(5);
        ord.push_back(1);
        EXPECT_EQ(eng.now(), 5);
      }(e, order),
      "sleeper");
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.inline_wakeups(), 1u);
}

TEST(Engine, WakeUpTiedWithAPendingEventRunsAfterIt) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] { order.push_back(1); });
  e.spawn(
      [](Engine& eng, std::vector<int>& ord) -> Coro<void> {
        co_await eng.sleep(10);
        ord.push_back(2);
      }(e, order),
      "sleeper");
  e.run();
  // Equal times fire in scheduling order: the tied wake-up was queued,
  // behind the event scheduled first.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.inline_wakeups(), 0u);
  EXPECT_EQ(e.now(), 10);
}

TEST(Engine, NoWakeUpRunsInPlacePastTheDeadline) {
  Engine e;
  std::vector<TimeNs> woke;
  e.spawn(
      [](Engine& eng, std::vector<TimeNs>& out) -> Coro<void> {
        for (int i = 0; i < 10; ++i) {
          co_await eng.sleep(10);
          out.push_back(eng.now());
        }
      }(e, woke),
      "sleeper");
  e.run(35);
  // 10, 20 and 30 are within the deadline and run in place; 40 is not.
  EXPECT_EQ(woke, (std::vector<TimeNs>{10, 20, 30}));
  EXPECT_EQ(e.now(), 35);
  EXPECT_EQ(e.inline_wakeups(), 3u);
  e.run(40);
  // The deadline is inclusive: the queued wake-up at 40 pops, while the
  // one at 50 neither runs in place nor pops.
  EXPECT_EQ(woke.back(), 40);
  EXPECT_EQ(e.now(), 40);
  EXPECT_EQ(woke.size(), 4u);
  EXPECT_EQ(e.inline_wakeups(), 3u);
}

TEST(Engine, StepNeverRunsAWakeUpInPlace) {
  Engine e;
  std::vector<TimeNs> woke;
  e.spawn(
      [](Engine& eng, std::vector<TimeNs>& out) -> Coro<void> {
        co_await eng.sleep(5);
        out.push_back(eng.now());
        co_await eng.sleep(5);
        out.push_back(eng.now());
      }(e, woke),
      "sleeper");
  EXPECT_TRUE(e.step());  // the spawn: the first sleep is queued
  EXPECT_TRUE(woke.empty());
  EXPECT_TRUE(e.step());  // wakes at 5; the second sleep is queued too
  EXPECT_EQ(woke, (std::vector<TimeNs>{5}));
  EXPECT_TRUE(e.step());
  EXPECT_EQ(woke, (std::vector<TimeNs>{5, 10}));
  EXPECT_FALSE(e.step());
  EXPECT_EQ(e.inline_wakeups(), 0u);
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(Engine, EventsExecutedCountsInPlaceWakeUps) {
  Engine e;
  e.spawn(
      [](Engine& eng) -> Coro<void> {
        for (int i = 0; i < 4; ++i) co_await eng.sleep(1);
      }(e),
      "sleeper");
  e.run();
  // The spawn plus four wake-ups, all four run in place: the count is the
  // one a fully queued run would report.
  EXPECT_EQ(e.events_executed(), 5u);
  EXPECT_EQ(e.inline_wakeups(), 4u);
  EXPECT_EQ(e.now(), 4);
}

TEST(Engine, InPlaceStreaksAreCappedPerPoppedEvent) {
  // A sleeper alone never has to return to the run loop; the cap queues
  // every (kMaxInlineStreak + 1)-th wake-up so the host stack unwinds.
  constexpr int kRounds = 3;
  constexpr int kSleeps = kRounds * (Engine::kMaxInlineStreak + 1);
  Engine e;
  e.spawn(
      [](Engine& eng) -> Coro<void> {
        for (int i = 0; i < kSleeps; ++i) co_await eng.sleep(1);
      }(e),
      "sleeper");
  e.run();
  EXPECT_EQ(e.now(), kSleeps);
  EXPECT_EQ(e.events_executed(), static_cast<std::uint64_t>(kSleeps) + 1);
  EXPECT_EQ(e.inline_wakeups(), static_cast<std::uint64_t>(kRounds * Engine::kMaxInlineStreak));
}

TEST(Engine, ManyProcessesScale) {
  // Smoke: 1000 interleaving processes run to completion deterministically.
  Engine e;
  std::int64_t total = 0;
  for (int i = 0; i < 1000; ++i) {
    e.spawn(
        [](Engine& eng, std::int64_t& sum, int id) -> Coro<void> {
          co_await eng.sleep(id % 7);
          sum += id;
        }(e, total, i),
        "worker");
  }
  e.run();
  EXPECT_EQ(total, 999 * 1000 / 2);
}

TEST(Engine, DestroyWithSuspendedProcessesDoesNotLeak) {
  // Torn down under ASAN this would flag leaks if root frames were not
  // destroyed by ~Engine.
  auto e = std::make_unique<Engine>();
  Trigger never(*e);
  e->spawn([](Trigger& t) -> Coro<void> { co_await t.wait(); }(never), "left-behind");
  e->run_until_blocked();
  EXPECT_EQ(e->processes_alive(), 1u);
  e.reset();  // must destroy the suspended frame
}

}  // namespace
}  // namespace dyntrace::sim
