#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace dyntrace::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(10, [] {});
  q.pop().second();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  ASSERT_TRUE(q.cancel(early));
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(*q.next_time(), 20);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleHandleNeverCancelsRecycledSlot) {
  // A handle kept past its event's execution must not cancel a later event
  // that recycled the same slot (the generation check).
  EventQueue q;
  const EventId stale = q.schedule(10, [] {});
  q.pop().second();  // slot freed
  bool ran = false;
  const EventId fresh = q.schedule(20, [&] { ran = true; });
  // The slot was recycled; the keys differ in the sequence number.
  ASSERT_EQ(fresh.key & EventId::kSlotMask, stale.key & EventId::kSlotMask);
  EXPECT_FALSE(q.cancel(stale));
  ASSERT_FALSE(q.empty());
  q.pop().second();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, LargeCallbackFallsBackToHeapAndStillRuns) {
  // Callbacks past the 64-byte inline buffer take the heap path of
  // InlineCallback; behaviour must be identical.
  EventQueue q;
  std::array<std::uint64_t, 16> payload{};
  payload.fill(7);
  std::uint64_t sum = 0;
  q.schedule(1, [payload, &sum] {
    for (const auto v : payload) sum += v;
  });
  q.pop().second();
  EXPECT_EQ(sum, 7u * 16u);
}

TEST(EventQueue, MillionScheduleCancelKeepsHeapBounded) {
  // Regression for the lazy-cancellation leak: a schedule/cancel churn with
  // a small live set must not accumulate dead heap entries without bound.
  // Before compaction the heap grew by one entry per schedule (~1M here);
  // with the dead > live compaction it stays within a small multiple of the
  // live count.
  EventQueue q;
  constexpr int kLive = 64;
  std::vector<EventId> live;
  TimeNs t = 0;
  for (int i = 0; i < kLive; ++i) {
    live.push_back(q.schedule(++t, [] {}));
  }
  std::size_t max_heap = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i) % live.size();
    ASSERT_TRUE(q.cancel(live[idx]));
    live[idx] = q.schedule(++t, [] {});
    max_heap = std::max(max_heap, q.heap_entries());
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kLive));
  // dead <= live + compaction hysteresis: never more than ~4x the live set
  // (64-entry floor included).
  EXPECT_LE(max_heap, 4u * kLive + 64u);
  TimeNs last = -1;
  int fired = 0;
  while (!q.empty()) {
    auto [when, cb] = q.pop();
    EXPECT_GE(when, last);
    last = when;
    ++fired;
  }
  EXPECT_EQ(fired, kLive);
}

TEST(EventQueue, SlotsAreReusedInSteadyState) {
  // Steady-state schedule/pop cycles must not grow the slot table.
  EventQueue q;
  for (int i = 0; i < 10'000; ++i) {
    q.schedule(i, [] {});
    q.pop().second();
  }
  EXPECT_EQ(q.heap_entries(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.scheduled_count(), 10'000u);
}

TEST(EventQueue, RandomizedOrderProperty) {
  // Property: for random schedules and cancellations, pops are
  // non-decreasing in time and only live events fire.
  Rng rng(99);
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(q.schedule(static_cast<TimeNs>(rng.next_below(1000)), [] {}));
  }
  int cancelled = 0;
  for (int i = 0; i < 200; ++i) {
    const auto idx = static_cast<std::size_t>(rng.next_below(ids.size()));
    if (q.cancel(ids[idx])) ++cancelled;
  }
  EXPECT_EQ(q.size(), 500u - cancelled);
  TimeNs last = -1;
  int fired = 0;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GE(t, last);
    last = t;
    ++fired;
  }
  EXPECT_EQ(fired, 500 - cancelled);
}

/// Drives an EventQueue and a reference ordered by (time, seq) with the
/// same operations and checks they agree at every step.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {}

  /// Schedule at now + [0, spread).
  void schedule(TimeNs spread) {
    const TimeNs at =
        now_ + static_cast<TimeNs>(rng_.next_below(static_cast<std::uint64_t>(spread)));
    const std::uint64_t seq = q_.scheduled_count();
    const int tag = next_tag_++;
    const EventId id = q_.schedule(at, [this, tag] { fired_.push_back(tag); });
    ref_.emplace(std::make_pair(at, seq), Pending{tag, id});
  }

  /// Reserve a sequence number now, to be scheduled by schedule_reserved().
  void reserve() { reserved_.push_back(q_.reserve_seq()); }

  /// Schedule the oldest reservation strictly after the last fired time, so
  /// nothing ordering after it has fired.
  void schedule_reserved() {
    if (reserved_.empty()) return;
    const std::uint64_t seq = reserved_.front();
    reserved_.erase(reserved_.begin());
    const TimeNs at = now_ + 1 + static_cast<TimeNs>(rng_.next_below(50));
    const int tag = next_tag_++;
    const EventId id =
        q_.schedule_reserved(at, seq, [this, tag] { fired_.push_back(tag); });
    ref_.emplace(std::make_pair(at, seq), Pending{tag, id});
  }

  /// Cancel the k-th earliest pending event (the earliest few are the
  /// root and its children).
  void cancel_rank(std::size_t k) {
    if (ref_.empty()) return;
    auto it = ref_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(std::min(k, ref_.size() - 1)));
    ASSERT_TRUE(q_.cancel(it->second.id));
    ASSERT_FALSE(q_.cancel(it->second.id));
    ref_.erase(it);
  }

  void check_next_time() {
    const std::optional<TimeNs> next = q_.next_time();
    if (ref_.empty()) {
      ASSERT_FALSE(next.has_value());
    } else {
      ASSERT_TRUE(next.has_value());
      ASSERT_EQ(*next, ref_.begin()->first.first);
    }
  }

  void pop() {
    if (ref_.empty()) return;
    auto [at, cb] = q_.pop();
    const auto expected = ref_.begin();
    ASSERT_EQ(at, expected->first.first);
    cb();
    ASSERT_EQ(fired_.back(), expected->second.tag);
    now_ = at;
    ref_.erase(expected);
  }

  void check_size() { ASSERT_EQ(q_.size(), ref_.size()); }

  Rng& rng() { return rng_; }
  EventQueue& queue() { return q_; }
  std::size_t pending() const { return ref_.size(); }

 private:
  struct Pending {
    int tag;
    EventId id;
  };
  Rng rng_;
  EventQueue q_;
  std::map<std::pair<TimeNs, std::uint64_t>, Pending> ref_;
  std::vector<std::uint64_t> reserved_;
  std::vector<int> fired_;
  TimeNs now_ = 0;
  int next_tag_ = 0;
};

TEST(EventQueue, MatchesReferenceOrderUnderMixedOperations) {
  // Seeded differential test: root reuse (pop then push), pop then
  // next_time then push, cancels of the earliest events (the root's
  // children), reserved sequence numbers, and bursts that force
  // compaction.  Narrow time spreads make equal-time ties common.
  for (std::uint64_t seed : {1u, 2u, 3u, 42u}) {
    SCOPED_TRACE(seed);
    Differential d(seed);
    for (int i = 0; i < 200; ++i) d.schedule(100);
    for (int step = 0; step < 20'000; ++step) {
      switch (d.rng().next_below(10)) {
        case 0:
        case 1:  // pop, then the callback's push takes the dead root's place
          d.pop();
          d.schedule(1 + static_cast<TimeNs>(d.rng().next_below(64)));
          break;
        case 2:  // pop, look ahead past the dead root, then push
          d.pop();
          d.check_next_time();
          d.schedule(8);
          break;
        case 3:  // pop with no push after it
          d.pop();
          break;
        case 4:  // cancel the root's children while the root is dead
          d.pop();
          d.cancel_rank(static_cast<std::size_t>(d.rng().next_below(4)));
          d.check_next_time();
          break;
        case 5:
          d.reserve();
          d.schedule(40);
          break;
        case 6:
          d.schedule_reserved();
          break;
        case 7:  // a cancel burst: dead entries outnumber live, compaction
          for (int k = 0; k < 8; ++k) {
            d.cancel_rank(static_cast<std::size_t>(d.rng().next_below(d.pending() + 1)));
          }
          break;
        default:
          d.schedule(1000);
          break;
      }
      d.check_size();
      d.check_next_time();
      if (HasFatalFailure()) return;
    }
    d.schedule_reserved();
    while (d.pending() > 0) d.pop();
    d.check_next_time();
    EXPECT_TRUE(d.queue().empty());
    EXPECT_EQ(d.queue().heap_entries(), 0u);
  }
}

TEST(EventQueue, DrainingByCancelEmptiesTheHeap) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  const EventId b = q.schedule(2, [] {});
  q.schedule(3, [] {});
  q.pop();  // the dead root stays until the next push
  ASSERT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(*q.next_time(), 3);
  q.pop();
  EXPECT_EQ(q.heap_entries(), 0u);
  const EventId c = q.schedule(4, [] {});
  ASSERT_TRUE(q.cancel(c));
  EXPECT_EQ(q.heap_entries(), 0u);
  EXPECT_FALSE(q.next_time().has_value());
}

}  // namespace
}  // namespace dyntrace::sim
