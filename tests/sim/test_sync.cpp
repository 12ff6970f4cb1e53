#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dyntrace::sim {
namespace {

TEST(Trigger, WaitBeforeFireBlocksUntilFire) {
  Engine e;
  Trigger t(e);
  TimeNs woke = -1;
  e.spawn(
      [](Engine& eng, Trigger& tr, TimeNs& out) -> Coro<void> {
        co_await tr.wait();
        out = eng.now();
      }(e, t, woke),
      "waiter");
  e.spawn(
      [](Engine& eng, Trigger& tr) -> Coro<void> {
        co_await eng.sleep(100);
        tr.fire();
      }(e, t),
      "firer");
  e.run();
  EXPECT_EQ(woke, 100);
}

TEST(Trigger, WaitAfterFireDoesNotBlock) {
  Engine e;
  Trigger t(e);
  t.fire();
  bool done = false;
  e.spawn(
      [](Trigger& tr, bool& flag) -> Coro<void> {
        co_await tr.wait();
        flag = true;
      }(t, done),
      "late-waiter");
  e.run();
  EXPECT_TRUE(done);
}

TEST(Trigger, FireWakesAllWaiters) {
  Engine e;
  Trigger t(e);
  int woke = 0;
  for (int i = 0; i < 5; ++i) {
    e.spawn(
        [](Trigger& tr, int& count) -> Coro<void> {
          co_await tr.wait();
          ++count;
        }(t, woke),
        "w");
  }
  e.spawn(
      [](Engine& eng, Trigger& tr) -> Coro<void> {
        co_await eng.sleep(1);
        tr.fire();
      }(e, t),
      "f");
  e.run();
  EXPECT_EQ(woke, 5);
}

TEST(Trigger, DoubleFireIsIdempotent) {
  Engine e;
  Trigger t(e);
  t.fire();
  EXPECT_NO_THROW(t.fire());
  EXPECT_TRUE(t.fired());
}

TEST(Trigger, WaitForTimesOutOrSeesAFire) {
  Engine e;
  Trigger never(e);
  Trigger soon(e);
  bool fired_never = true;
  bool fired_soon = false;
  auto waiter = [](Trigger& t, TimeNs timeout, bool& out) -> Coro<void> {
    out = co_await t.wait_for(timeout);
  };
  e.spawn(waiter(never, 20, fired_never), "never");
  e.spawn(waiter(soon, 20, fired_soon), "soon");
  e.schedule_at(10, [&soon] { soon.fire(); });
  e.run();
  EXPECT_FALSE(fired_never);
  EXPECT_TRUE(fired_soon);
}

TEST(Trigger, FireAtTheDeadlineWinsWhenItDequeuesFirst) {
  Engine e;
  Trigger t(e);
  bool fired = false;
  // The fire is scheduled before the waiter's deadline, so at t=30 it
  // claims the waiter and the deadline finds it gone.
  e.schedule_at(30, [&t] { t.fire(); });
  e.spawn([](Trigger& tr, bool& out) -> Coro<void> { out = co_await tr.wait_for(30); }(t, fired),
          "w");
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Condition, NotifyOneWakesInFifoOrder) {
  Engine e;
  Condition c(e);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    e.spawn(
        [](Condition& cond, std::vector<int>& ord, int id) -> Coro<void> {
          co_await cond.wait();
          ord.push_back(id);
        }(c, order, i),
        "w");
  }
  e.spawn(
      [](Engine& eng, Condition& cond) -> Coro<void> {
        co_await eng.sleep(1);
        cond.notify_one();
        co_await eng.sleep(1);
        cond.notify_one();
        co_await eng.sleep(1);
        cond.notify_one();
      }(e, c),
      "n");
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Condition, NotifyAllWakesEveryone) {
  Engine e;
  Condition c(e);
  int woke = 0;
  for (int i = 0; i < 4; ++i) {
    e.spawn(
        [](Condition& cond, int& n) -> Coro<void> {
          co_await cond.wait();
          ++n;
        }(c, woke),
        "w");
  }
  e.spawn(
      [](Engine& eng, Condition& cond) -> Coro<void> {
        co_await eng.sleep(5);
        cond.notify_all();
      }(e, c),
      "n");
  e.run();
  EXPECT_EQ(woke, 4);
}

TEST(Condition, NotifyWithNoWaitersIsLost) {
  Engine e;
  Condition c(e);
  c.notify_all();  // nothing queued; must not crash and must not be remembered
  EXPECT_EQ(c.waiter_count(), 0u);
}

TEST(Semaphore, LimitsConcurrency) {
  Engine e;
  Semaphore sem(e, 2);
  int inside = 0, peak = 0;
  for (int i = 0; i < 6; ++i) {
    e.spawn(
        [](Engine& eng, Semaphore& s, int& in, int& pk) -> Coro<void> {
          co_await s.acquire();
          ++in;
          pk = std::max(pk, in);
          co_await eng.sleep(10);
          --in;
          s.release();
        }(e, sem, inside, peak),
        "user");
  }
  e.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(inside, 0);
  EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, ReleaseHandsPermitToWaiter) {
  Engine e;
  Semaphore sem(e, 0);
  bool got = false;
  e.spawn(
      [](Semaphore& s, bool& flag) -> Coro<void> {
        co_await s.acquire();
        flag = true;
      }(sem, got),
      "w");
  e.spawn(
      [](Engine& eng, Semaphore& s) -> Coro<void> {
        co_await eng.sleep(3);
        s.release();
      }(e, sem),
      "r");
  e.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(sem.available(), 0);
}

class BarrierParam : public ::testing::TestWithParam<int> {};

TEST_P(BarrierParam, AllParticipantsLeaveTogether) {
  const int n = GetParam();
  Engine e;
  SimBarrier barrier(e, static_cast<std::size_t>(n));
  std::vector<TimeNs> leave_times;
  for (int i = 0; i < n; ++i) {
    e.spawn(
        [](Engine& eng, SimBarrier& b, std::vector<TimeNs>& out, int id) -> Coro<void> {
          co_await eng.sleep(id * 10);  // staggered arrivals
          co_await b.arrive_and_wait();
          out.push_back(eng.now());
        }(e, barrier, leave_times, i),
        "p");
  }
  e.run();
  ASSERT_EQ(leave_times.size(), static_cast<std::size_t>(n));
  // Everyone leaves at the time of the last arrival.
  for (const auto t : leave_times) EXPECT_EQ(t, (n - 1) * 10);
  EXPECT_EQ(barrier.generation(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BarrierParam, ::testing::Values(1, 2, 3, 8, 64));

class TightBarrierLoop : public ::testing::TestWithParam<int> {};

TEST_P(TightBarrierLoop, BackToBackCyclesWithNoDelays) {
  // Regression: when every participant loops straight back into the next
  // arrive_and_wait with zero intervening delay, a released waiter used to
  // re-check the count on resume and release the *next* generation early
  // (deadlocking or skipping cycles).  All participants must observe every
  // generation in lockstep.
  const int n = GetParam();
  sim::Engine e;
  SimBarrier barrier(e, static_cast<std::size_t>(n));
  constexpr int kCycles = 32;
  std::vector<int> completed(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    e.spawn(
        [](SimBarrier& b, std::vector<int>& done, int id) -> Coro<void> {
          for (int cycle = 0; cycle < kCycles; ++cycle) {
            co_await b.arrive_and_wait();
            ++done[static_cast<std::size_t>(id)];
          }
        }(barrier, completed, i),
        "p");
  }
  e.run();
  for (int i = 0; i < n; ++i) EXPECT_EQ(completed[i], kCycles) << "participant " << i;
  EXPECT_EQ(barrier.generation(), static_cast<std::uint64_t>(kCycles));
}

INSTANTIATE_TEST_SUITE_P(Sizes, TightBarrierLoop, ::testing::Values(1, 2, 3, 8, 64));

TEST(SimBarrier, IsReusableAcrossCycles) {
  Engine e;
  SimBarrier barrier(e, 2);
  std::vector<TimeNs> times;
  for (int i = 0; i < 2; ++i) {
    e.spawn(
        [](Engine& eng, SimBarrier& b, std::vector<TimeNs>& out, int id) -> Coro<void> {
          for (int cycle = 0; cycle < 3; ++cycle) {
            co_await eng.sleep(id == 0 ? 5 : 11);
            co_await b.arrive_and_wait();
            if (id == 0) out.push_back(eng.now());
          }
        }(e, barrier, times, i),
        "p");
  }
  e.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 11);
  EXPECT_EQ(times[1], 22);
  EXPECT_EQ(times[2], 33);
  EXPECT_EQ(barrier.generation(), 3u);
}

}  // namespace
}  // namespace dyntrace::sim
