// Deadlines for timed waits that almost never expire (DESIGN.md §8).
//
// A timed wait that arms an engine timer of its own pays a heap push and a
// cancel for a timeout that almost never fires.  A Watchdog keeps the
// deadlines of many waits in one list, ordered by (time, sequence number),
// and arms a single engine timer for the earliest.  A wait that ends early
// only marks its entry resolved: O(1), no Engine::cancel.  The armed timer
// stays where it is; when it fires for a resolved entry, it re-arms for
// the earliest entry still waiting.
//
// Exactness.  watch() takes the wait's event sequence number at once
// (Engine::reserve_seq), where a per-wait timer would have taken it, and
// the timer is always armed under the due entry's own (time, seq).  So an
// expiry fires at the same simulated time, and in the same place among
// the events at that time, as a timer scheduled by watch() would have.
// The armed timer is never later than any waiting entry, so
// Engine::advance_if_next, which consults only the event queue, never
// runs a wake-up past a watched deadline.
//
// Waits of one fixed length that start in time order arrive sorted, so
// watch() appends in O(1); an earlier deadline (a timeout measured from an
// earlier instant) is inserted in place and re-arms the timer.  Resolved
// entries leave from the front as the timer passes them, and the list is
// compacted once they outnumber the waiting ones.  The timer stays armed
// when the last waiting entry resolves: the next wait usually starts
// before it fires, and a timer that fires with nothing waiting does
// nothing.  So the owner stands the watchdog down once no wait will come
// (the destructor does too); otherwise the armed timer would run the clock
// on past the last event.  Its only cancels are that one and the re-arm
// for an earlier deadline.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

namespace dyntrace::sim {

class Watchdog {
 public:
  /// Runs as an engine event when a watched wait reaches its deadline
  /// unresolved.  It must resume a coroutine, if it resumes one, as its
  /// last action (see engine.hpp).
  using Expire = void (*)(void* target);

  /// A watched wait.  Resolving a ticket whose wait already expired, or
  /// was resolved, does nothing.
  struct Ticket {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  explicit Watchdog(Engine& engine) : engine_(engine) {}
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Watch a wait until `at` (not before now): expire(target) runs at `at`
  /// unless resolve() comes first.  `target` must stay valid until then.
  Ticket watch(TimeNs at, void* target, Expire expire);

  /// The wait ended before its deadline.
  void resolve(Ticket ticket);

  /// Cancel the armed timer: no wait is left and none will be watched
  /// before the run ends.
  void stand_down();

  /// Engine::cancel calls made: stand-downs and re-arms for an earlier
  /// deadline, never one per wait.
  std::uint64_t cancels() const { return cancels_; }

  /// Listed deadlines, resolved ones awaiting compaction included (the
  /// quantity the compaction bound caps; see tests).
  std::size_t entries() const { return entries_.size() - head_; }

 private:
  struct Entry {
    TimeNs at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    void* target = nullptr;
    Expire expire = nullptr;
    std::uint32_t gen = 0;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  bool live(const Entry& e) const { return slots_[e.slot].gen == e.gen; }
  void release(std::uint32_t slot);
  void arm(const Entry& e);
  void disarm();
  /// Drop resolved entries from the front; false when none is waiting.
  bool drop_resolved_front();
  void on_timer();
  void maybe_compact();

  Engine& engine_;
  /// Watched deadlines in (at, seq) order; [0, head_) already passed.
  std::vector<Entry> entries_;
  std::size_t head_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t waiting_ = 0;
  /// The armed timer and the key it fires under; armed whenever
  /// waiting_ > 0, and no later than any waiting entry.
  EventId timer_{};
  Entry armed_{};
  bool is_armed_ = false;
  std::uint64_t cancels_ = 0;
};

}  // namespace dyntrace::sim
