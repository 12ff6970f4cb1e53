#include "sim/mailbox.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace dyntrace::sim {
namespace {

TEST(Mailbox, RecvGetsQueuedItem) {
  Engine e;
  Mailbox<int> box(e);
  box.put(42);
  int got = 0;
  e.spawn(
      [](Mailbox<int>& b, int& out) -> Coro<void> { out = co_await b.recv(); }(box, got),
      "r");
  e.run();
  EXPECT_EQ(got, 42);
}

TEST(Mailbox, RecvBlocksUntilPut) {
  Engine e;
  Mailbox<std::string> box(e);
  std::string got;
  TimeNs when = -1;
  e.spawn(
      [](Engine& eng, Mailbox<std::string>& b, std::string& out, TimeNs& t) -> Coro<void> {
        out = co_await b.recv();
        t = eng.now();
      }(e, box, got, when),
      "r");
  e.spawn(
      [](Engine& eng, Mailbox<std::string>& b) -> Coro<void> {
        co_await eng.sleep(50);
        b.put("hello");
      }(e, box),
      "s");
  e.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(when, 50);
}

TEST(Mailbox, FifoOrderPreserved) {
  Engine e;
  Mailbox<int> box(e);
  for (int i = 0; i < 5; ++i) box.put(i);
  std::vector<int> got;
  e.spawn(
      [](Mailbox<int>& b, std::vector<int>& out) -> Coro<void> {
        for (int i = 0; i < 5; ++i) out.push_back(co_await b.recv());
      }(box, got),
      "r");
  e.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mailbox, MultipleWaitersServedFifo) {
  Engine e;
  Mailbox<int> box(e);
  std::vector<std::pair<int, int>> got;  // (waiter, value)
  for (int w = 0; w < 3; ++w) {
    e.spawn(
        [](Mailbox<int>& b, std::vector<std::pair<int, int>>& out, int id) -> Coro<void> {
          const int v = co_await b.recv();
          out.emplace_back(id, v);
        }(box, got, w),
        "w");
  }
  e.spawn(
      [](Engine& eng, Mailbox<int>& b) -> Coro<void> {
        co_await eng.sleep(1);
        b.put(100);
        co_await eng.sleep(1);
        b.put(200);
        co_await eng.sleep(1);
        b.put(300);
      }(e, box),
      "s");
  e.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_pair(0, 100));
  EXPECT_EQ(got[1], std::make_pair(1, 200));
  EXPECT_EQ(got[2], std::make_pair(2, 300));
}

TEST(Mailbox, TryRecvNonBlocking) {
  Engine e;
  Mailbox<int> box(e);
  EXPECT_FALSE(box.try_recv().has_value());
  box.put(7);
  EXPECT_EQ(box.try_recv(), 7);
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, RecvForPutAtTheDeadlineWinsWhenItDequeuesFirst) {
  Engine e;
  Mailbox<int> box(e);
  std::optional<int> got;
  std::optional<int> missed = 0;
  e.schedule_at(30, [&box] { box.put(7); });
  e.spawn([](Mailbox<int>& b, std::optional<int>& out) -> Coro<void> {
            out = co_await b.recv_for(30);
          }(box, got),
          "r");
  e.spawn([](Engine& eng, Mailbox<int>& b, std::optional<int>& out) -> Coro<void> {
            co_await eng.sleep(100);
            out = co_await b.recv_for(5);  // nothing left: times out
          }(e, box, missed),
          "late");
  e.run();
  EXPECT_EQ(got, 7);
  EXPECT_FALSE(missed.has_value());
}

struct Msg {
  int src;
  int tag;
  std::string payload;
};

TEST(MatchQueue, RecvMatchesPredicateAmongQueued) {
  Engine e;
  MatchQueue<Msg> q(e);
  q.put(Msg{1, 10, "a"});
  q.put(Msg{2, 20, "b"});
  q.put(Msg{3, 10, "c"});
  Msg got{};
  e.spawn(
      [](MatchQueue<Msg>& mq, Msg& out) -> Coro<void> {
        out = co_await mq.recv([](const Msg& m) { return m.tag == 20; });
      }(q, got),
      "r");
  e.run();
  EXPECT_EQ(got.payload, "b");
  EXPECT_EQ(q.queued(), 2u);
}

TEST(MatchQueue, RecvTakesFirstMatchInFifoOrder) {
  Engine e;
  MatchQueue<Msg> q(e);
  q.put(Msg{1, 10, "first"});
  q.put(Msg{1, 10, "second"});
  Msg got{};
  e.spawn(
      [](MatchQueue<Msg>& mq, Msg& out) -> Coro<void> {
        out = co_await mq.recv([](const Msg& m) { return m.src == 1; });
      }(q, got),
      "r");
  e.run();
  EXPECT_EQ(got.payload, "first");
}

TEST(MatchQueue, BlockedRecvWokenOnlyByMatch) {
  Engine e;
  MatchQueue<Msg> q(e);
  Msg got{};
  TimeNs when = -1;
  e.spawn(
      [](Engine& eng, MatchQueue<Msg>& mq, Msg& out, TimeNs& t) -> Coro<void> {
        out = co_await mq.recv([](const Msg& m) { return m.src == 9; });
        t = eng.now();
      }(e, q, got, when),
      "r");
  e.spawn(
      [](Engine& eng, MatchQueue<Msg>& mq) -> Coro<void> {
        co_await eng.sleep(10);
        mq.put(Msg{1, 0, "wrong"});  // should not wake
        co_await eng.sleep(10);
        mq.put(Msg{9, 0, "right"});
      }(e, q),
      "s");
  e.run();
  EXPECT_EQ(got.payload, "right");
  EXPECT_EQ(when, 20);
  EXPECT_EQ(q.queued(), 1u);  // "wrong" remains
}

TEST(MatchQueue, TwoWaitersDifferentPredicates) {
  Engine e;
  MatchQueue<Msg> q(e);
  std::string got_a, got_b;
  e.spawn(
      [](MatchQueue<Msg>& mq, std::string& out) -> Coro<void> {
        out = (co_await mq.recv([](const Msg& m) { return m.tag == 1; })).payload;
      }(q, got_a),
      "a");
  e.spawn(
      [](MatchQueue<Msg>& mq, std::string& out) -> Coro<void> {
        out = (co_await mq.recv([](const Msg& m) { return m.tag == 2; })).payload;
      }(q, got_b),
      "b");
  e.spawn(
      [](Engine& eng, MatchQueue<Msg>& mq) -> Coro<void> {
        co_await eng.sleep(1);
        mq.put(Msg{0, 2, "for-b"});  // second waiter matches first put
        mq.put(Msg{0, 1, "for-a"});
      }(e, q),
      "s");
  e.run();
  EXPECT_EQ(got_a, "for-a");
  EXPECT_EQ(got_b, "for-b");
}

TEST(MatchQueue, RecvForGivesUpAtItsDeadline) {
  Engine e;
  MatchQueue<Msg> q(e);
  // Two timed waiters; the later-queued one expires first, so its removal
  // walks past the other.
  std::optional<Msg> got_long = Msg{};
  std::optional<Msg> got_short = Msg{};
  TimeNs when_long = -1;
  TimeNs when_short = -1;
  auto waiter = [](Engine& eng, MatchQueue<Msg>& mq, int src, TimeNs timeout,
                   std::optional<Msg>& out, TimeNs& t) -> Coro<void> {
    out = co_await mq.recv_for([src](const Msg& m) { return m.src == src; }, timeout);
    t = eng.now();
  };
  e.spawn(waiter(e, q, 9, 50, got_long, when_long), "long");
  e.spawn(waiter(e, q, 8, 30, got_short, when_short), "short");
  e.spawn(
      [](Engine& eng, MatchQueue<Msg>& mq) -> Coro<void> {
        co_await eng.sleep(10);
        mq.put(Msg{1, 0, "wrong"});  // matches neither
      }(e, q),
      "s");
  e.run();
  EXPECT_FALSE(got_long.has_value());
  EXPECT_FALSE(got_short.has_value());
  EXPECT_EQ(when_short, 30);
  EXPECT_EQ(when_long, 50);
  EXPECT_EQ(q.waiting(), 0u);
  EXPECT_EQ(q.queued(), 1u);  // "wrong" remains
}

TEST(MatchQueue, RecvForTakesAMatchBeforeItsDeadline) {
  Engine e;
  MatchQueue<Msg> q(e);
  std::optional<Msg> got;
  TimeNs when = -1;
  e.spawn(
      [](Engine& eng, MatchQueue<Msg>& mq, std::optional<Msg>& out, TimeNs& t) -> Coro<void> {
        out = co_await mq.recv_for([](const Msg& m) { return m.src == 9; }, 30);
        t = eng.now();
      }(e, q, got, when),
      "r");
  e.spawn(
      [](Engine& eng, MatchQueue<Msg>& mq) -> Coro<void> {
        co_await eng.sleep(10);
        mq.put(Msg{9, 0, "right"});
      }(e, q),
      "s");
  e.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, "right");
  EXPECT_EQ(when, 10);
  EXPECT_EQ(e.now(), 10);  // the deadline was canceled, not run
}

TEST(MatchQueue, RecvForPutAtTheDeadlineWinsWhenItDequeuesFirst) {
  Engine e;
  MatchQueue<Msg> q(e);
  std::optional<Msg> got;
  // The sender's wake-up is scheduled before the receiver's deadline, so at
  // t=30 the put claims the waiter and the deadline finds it gone.
  e.spawn(
      [](Engine& eng, MatchQueue<Msg>& mq) -> Coro<void> {
        co_await eng.sleep(30);
        mq.put(Msg{9, 0, "just in time"});
      }(e, q),
      "s");
  e.spawn(
      [](MatchQueue<Msg>& mq, std::optional<Msg>& out) -> Coro<void> {
        out = co_await mq.recv_for([](const Msg& m) { return m.src == 9; }, 30);
      }(q, got),
      "r");
  e.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, "just in time");
}

TEST(MatchQueue, ProbeDoesNotConsume) {
  Engine e;
  MatchQueue<Msg> q(e);
  q.put(Msg{5, 0, "x"});
  const auto pred = [](const Msg& m) { return m.src == 5; };
  EXPECT_TRUE(q.probe(pred));
  EXPECT_TRUE(q.probe(pred));
  EXPECT_EQ(q.queued(), 1u);
  EXPECT_FALSE(q.probe([](const Msg& m) { return m.src == 6; }));
}

TEST(MatchQueue, TryRecvRemovesOnlyMatch) {
  Engine e;
  MatchQueue<Msg> q(e);
  q.put(Msg{1, 1, "keep"});
  q.put(Msg{2, 2, "take"});
  auto taken = q.try_recv([](const Msg& m) { return m.src == 2; });
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->payload, "take");
  EXPECT_EQ(q.queued(), 1u);
  EXPECT_FALSE(q.try_recv([](const Msg& m) { return m.src == 2; }).has_value());
}

}  // namespace
}  // namespace dyntrace::sim
