#include "sim/callback.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"

namespace dyntrace::sim {
namespace {

/// A capture with a user-provided copy, move and destructor: the opposite
/// of the trivially copyable captures the hot paths schedule.
struct Tracked {
  static inline int alive = 0;
  static inline int destroyed = 0;
  int* calls;
  explicit Tracked(int* c) : calls(c) { ++alive; }
  Tracked(const Tracked& other) : calls(other.calls) { ++alive; }
  Tracked(Tracked&& other) noexcept : calls(other.calls) { ++alive; }
  ~Tracked() {
    --alive;
    ++destroyed;
  }
  void operator()() const { ++*calls; }
};

class InlineCallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracked::alive = 0;
    Tracked::destroyed = 0;
  }
};

TEST_F(InlineCallbackTest, NonTrivialCaptureIsDestroyedExactlyOnce) {
  int calls = 0;
  {
    InlineCallback a{Tracked{&calls}};  // the temporary is destroyed here
    EXPECT_EQ(Tracked::alive, 1);
    InlineCallback b{std::move(a)};
    InlineCallback c;
    c = std::move(b);
    EXPECT_EQ(Tracked::alive, 1);
    EXPECT_FALSE(a != nullptr);
    EXPECT_FALSE(b != nullptr);
    c();
    EXPECT_EQ(calls, 1);
  }
  EXPECT_EQ(Tracked::alive, 0);
}

TEST_F(InlineCallbackTest, NonTrivialCaptureThroughTheQueueIsDestroyedOnce) {
  int calls = 0;
  {
    EventQueue q;
    q.schedule(5, Tracked{&calls});
    const EventId cancelled = q.schedule(6, Tracked{&calls});
    EXPECT_EQ(Tracked::alive, 2);
    ASSERT_TRUE(q.cancel(cancelled));
    EXPECT_EQ(Tracked::alive, 1);
    auto [at, cb] = q.pop();
    EXPECT_EQ(at, 5);
    EXPECT_EQ(Tracked::alive, 1);
    cb();
    EXPECT_EQ(calls, 1);
  }
  EXPECT_EQ(Tracked::alive, 0);
}

TEST_F(InlineCallbackTest, MoveAssignDestroysThePreviousCapture) {
  int calls = 0;
  InlineCallback a{Tracked{&calls}};
  const int before = Tracked::destroyed;
  a = InlineCallback([&calls] { calls += 10; });
  EXPECT_EQ(Tracked::destroyed, before + 1);
  EXPECT_EQ(Tracked::alive, 0);
  a();
  EXPECT_EQ(calls, 10);
  a = nullptr;
  EXPECT_FALSE(a != nullptr);
}

TEST_F(InlineCallbackTest, OversizedCaptureLivesOnTheHeapAndIsDestroyedOnce) {
  int calls = 0;
  {
    std::array<std::uint64_t, 16> pad{};
    InlineCallback a([t = Tracked{&calls}, pad] {
      t();
      (void)pad;
    });
    InlineCallback b{std::move(a)};
    b();
    EXPECT_EQ(Tracked::alive, 1);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(Tracked::alive, 0);
}

TEST_F(InlineCallbackTest, TrivialCaptureKeepsItsStateAcrossMoves) {
  // A trivially copyable capture is moved as bytes: the state it carries
  // must arrive whole, however many times it moves.
  std::int64_t sum = 0;
  const std::array<std::int64_t, 6> values{1, 2, 3, 4, 5, 6};
  InlineCallback a([&sum, values] {
    for (const auto v : values) sum += v;
  });
  InlineCallback b{std::move(a)};
  InlineCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(sum, 21);
  EXPECT_FALSE(a != nullptr);
  EXPECT_FALSE(b != nullptr);
}

}  // namespace
}  // namespace dyntrace::sim
