// The pending-event set of the discrete-event engine.
//
// A 4-ary min-heap orders events by (time, sequence number); the sequence
// number makes simultaneous events fire in scheduling order, which is what
// makes whole-simulation runs deterministic.  Four-way branching halves the
// tree depth of a binary heap and keeps sibling comparisons inside two
// cache lines, which is most of the pop cost at simulation-size queues.  Callbacks live in a
// slot table addressed by {slot, generation} handles: scheduling reuses
// freed slots (no allocation in steady state), cancellation is O(1) slot
// invalidation, and stale heap entries are skipped on access.  When dead
// entries outnumber live ones the heap is compacted, so cancel-heavy
// workloads (timeout patterns) stay bounded.
//
// A sequence number can be taken before its event exists (reserve_seq)
// and used later (schedule_reserved): the event then orders exactly as if
// it had been scheduled at reservation time.  sim::Watchdog arms its one
// timer this way for whichever watched wait is due first.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "support/common.hpp"

namespace dyntrace::sim {

/// Handle for cancelling a scheduled event.  The generation detects reuse:
/// a handle kept past its event's execution never cancels a later event
/// that recycled the same slot.
struct EventId {
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  std::uint32_t slot = kNoSlot;
  std::uint32_t gen = 0;
  friend bool operator==(EventId a, EventId b) { return a.slot == b.slot && a.gen == b.gen; }
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedule `cb` at absolute time `at`.
  EventId schedule(TimeNs at, Callback cb) { return push(at, next_seq_++, std::move(cb)); }

  /// Take the next sequence number without scheduling anything.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `cb` at `at` under a sequence number from reserve_seq(); it
  /// fires among the events at `at` where an event scheduled at
  /// reservation time would have.  Precondition: nothing that orders after
  /// (at, seq) has fired yet.
  EventId schedule_reserved(TimeNs at, std::uint64_t seq, Callback cb) {
    DT_ASSERT(seq < next_seq_, "schedule_reserved: sequence number was never reserved");
    return push(at, seq, std::move(cb));
  }

  /// Cancel a pending event.  Returns false if it already fired or was
  /// already cancelled.
  bool cancel(EventId id);

  /// Time of the earliest live event, if any.
  std::optional<TimeNs> next_time() const {
    drop_dead_top();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().time;
  }

  /// Pop the earliest live event.  Precondition: !empty().
  std::pair<TimeNs, Callback> pop();

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Sequence numbers ever handed out, to events and reservations alike
  /// (monotone; used for determinism checks).
  std::uint64_t scheduled_count() const { return next_seq_; }

  /// Op counts: heap pushes (one per scheduled event) and successful
  /// cancels since construction.
  std::uint64_t pushes() const { return pushes_; }
  std::uint64_t cancels() const { return cancels_; }

  /// Heap entries including cancelled ones awaiting compaction (the
  /// quantity the compaction bound caps; see tests).
  std::size_t heap_entries() const { return heap_.size(); }

 private:
  struct HeapEntry {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
  };

  EventId push(TimeNs at, std::uint64_t seq, Callback&& cb);
  bool entry_live(const HeapEntry& e) const {
    return slots_[e.slot].gen == e.gen;
  }
  void sift_up(std::size_t index) const;
  void sift_down(std::size_t index) const;
  void pop_root() const;
  void drop_dead_top() const {
    while (!heap_.empty() && !entry_live(heap_.front())) pop_root();
  }
  void release_slot(std::uint32_t slot);
  void maybe_compact();

  // `heap_` can contain entries whose slot generation moved on (cancelled);
  // they are skipped on access.  Mutable so the const accessors can drop
  // dead roots (slot state itself is untouched by the drop).
  mutable std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t cancels_ = 0;
};

}  // namespace dyntrace::sim
