// The pending-event set of the discrete-event engine.
//
// A 4-ary min-heap orders events by (time, sequence number); the sequence
// number makes simultaneous events fire in scheduling order, which is what
// makes whole-simulation runs deterministic.  A heap entry is 16 bytes,
// {time, key} with key = seq << 24 | slot, so the four children of a node
// span 64 bytes and the earliest of them is picked without branches.
// Callbacks live in a slot table: scheduling reuses freed slots (no
// allocation in steady state), and an entry is live while its slot still
// holds its key, so cancellation is O(1) slot invalidation and stale heap
// entries are skipped on access.  When dead entries outnumber live ones
// the heap is compacted, so cancel-heavy workloads (timeout patterns) stay
// bounded.
//
// pop() leaves the entry it hands out at the root, dead.  The engine's
// next push, usually made by that very callback, overwrites it and sifts
// down once, where removing the root and appending would sift twice;
// next_time() reads the root's children meanwhile.
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

/// Handle for cancelling a scheduled event: the event's key.  The key
/// holds the event's unique sequence number, so a handle kept past its
/// event's execution never cancels a later event that recycled the slot.
struct EventId {
  /// Key layout: seq << kSlotBits | slot.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::uint64_t key = kNone;
  friend bool operator==(EventId a, EventId b) { return a.key == b.key; }
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedule `cb` at absolute time `at`.
  EventId schedule(TimeNs at, Callback&& cb) { return push(at, reserve_seq(), std::move(cb)); }

  /// Take the next sequence number without scheduling anything.  Fails
  /// closed once the key's sequence field is spent.
  std::uint64_t reserve_seq() {
    DT_EXPECT(next_seq_ < kSeqLimit, "event queue: sequence numbers exhausted");
    return next_seq_++;
  }

  /// Schedule `cb` at `at` under a sequence number from reserve_seq(); it
  /// fires among the events at `at` where an event scheduled at
  /// reservation time would have.  Preconditions: nothing that orders after
  /// (at, seq) has fired yet, and a number scheduled again after a cancel
  /// is scheduled at the same time (its cancelled entry may then read as
  /// the live one, which is harmless only because the two are equal).
  EventId schedule_reserved(TimeNs at, std::uint64_t seq, Callback&& cb) {
    DT_ASSERT(seq < next_seq_, "schedule_reserved: sequence number was never reserved");
    return push(at, seq, std::move(cb));
  }

  /// Cancel a pending event.  Returns false if it already fired or was
  /// already cancelled.
  bool cancel(EventId id);

  /// Time of the earliest live event, if any.
  std::optional<TimeNs> next_time() const {
    if (live_ == 0) return std::nullopt;
    if (entry_live(heap_.front())) return heap_.front().time;
    // A dead root, usually the event pop() handed out: the earliest entry
    // below it is its earliest child, if that one is live.
    const HeapEntry& child = heap_[earliest_child(1)];
    if (entry_live(child)) return child.time;
    drop_dead_top();
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

  /// Heap entries including dead ones awaiting removal (the quantity the
  /// compaction bound caps; see tests).  0 whenever nothing is pending.
  std::size_t heap_entries() const { return heap_.size(); }

 private:
  /// Sequence numbers fit the key above the slot field.
  static constexpr std::uint64_t kSeqLimit = EventId::kNone >> EventId::kSlotBits;

  struct HeapEntry {
    TimeNs time;
    std::uint64_t key;
  };
  /// (time, seq) order: the key's slot field never decides, since equal
  /// sequence numbers mean the same event.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.key < b.key));
  }
  struct Slot {
    Callback cb;
    std::uint64_t key = EventId::kNone;  ///< the pending event's key, or kNone
  };

  EventId push(TimeNs at, std::uint64_t seq, Callback&& cb);
  bool entry_live(const HeapEntry& e) const {
    return slots_[e.key & EventId::kSlotMask].key == e.key;
  }
  /// 4-ary heap indexing.
  static constexpr std::size_t kArity = 4;

  /// The earliest of the children starting at `first` (a valid index).
  std::size_t earliest_child(std::size_t first) const {
    const HeapEntry* h = heap_.data();
    const std::size_t size = heap_.size();
    if (first + kArity <= size) {
      // All four children: two pairwise picks and a final one, each a
      // conditional move rather than a branch.
      const std::size_t a = first + static_cast<std::size_t>(earlier(h[first + 1], h[first]));
      const std::size_t b =
          first + 2 + static_cast<std::size_t>(earlier(h[first + 3], h[first + 2]));
      return earlier(h[b], h[a]) ? b : a;
    }
    std::size_t best = first;
    for (std::size_t c = first + 1; c < size; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    return best;
  }
  void sift_up(std::size_t index) const;
  void sift_down(std::size_t index) const;
  void pop_root() const;
  void drop_dead_top() const {
    while (!entry_live(heap_.front())) pop_root();
  }
  void release_slot(std::uint32_t slot);
  void maybe_compact();

  // `heap_` can contain entries whose slot moved on (fired or cancelled);
  // they are skipped on access, and the heap is empty whenever live_ is 0.
  // Mutable so the const accessors can drop dead roots (slot state itself
  // is untouched by the drop).
  mutable std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t cancels_ = 0;
};

}  // namespace dyntrace::sim
