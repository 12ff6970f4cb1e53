#include "sim/event_queue.hpp"

#include <algorithm>

#include "support/common.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::sim {

namespace {

/// Below this heap size compaction is never worth the rebuild.
constexpr std::size_t kCompactMinEntries = 64;

}  // namespace

void EventQueue::sift_up(std::size_t index) const {
  HeapEntry entry = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!earlier(entry, heap_[parent])) break;
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = entry;
}

void EventQueue::sift_down(std::size_t index) const {
  const std::size_t size = heap_.size();
  HeapEntry entry = heap_[index];
  while (true) {
    const std::size_t first_child = index * kArity + 1;
    if (first_child >= size) break;
    const std::size_t best = earliest_child(first_child);
    if (!earlier(heap_[best], entry)) break;
    heap_[index] = heap_[best];
    index = best;
  }
  heap_[index] = entry;
}

void EventQueue::pop_root() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

EventId EventQueue::push(TimeNs at, std::uint64_t seq, Callback&& cb) {
  DT_ASSERT(cb != nullptr, "cannot schedule a null callback");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    DT_EXPECT(slots_.size() < EventId::kSlotMask, "event queue: too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    // Room for every slot on the free list, so releasing one (inside a
    // pop) never allocates.
    if (free_slots_.capacity() < slots_.size()) free_slots_.reserve(slots_.capacity());
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.key = seq << EventId::kSlotBits | slot;
  const HeapEntry entry{at, s.key};
  if (!heap_.empty() && !entry_live(heap_.front())) {
    // The root is dead (most often the event pop() just handed out): the
    // new entry takes its place.
    heap_.front() = entry;
    sift_down(0);
  } else {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  }
  ++live_;
  ++pushes_;
  return EventId{s.key};
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.key = EventId::kNone;  // invalidates the heap entry and any outstanding EventId
  free_slots_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t slot = id.key & EventId::kSlotMask;
  if (slot >= slots_.size() || slots_[slot].key != id.key) return false;
  release_slot(static_cast<std::uint32_t>(slot));
  DT_ASSERT(live_ > 0);
  --live_;
  ++cancels_;
  if (live_ == 0) {
    heap_.clear();
  } else {
    maybe_compact();
  }
  return true;
}

void EventQueue::maybe_compact() {
  // Dead heap entries are the price of O(1) cancel; rebuild once they
  // outnumber the live ones so the heap stays within 2x of live events.
  if (heap_.size() < kCompactMinEntries || heap_.size() - live_ <= live_) return;
  const std::size_t before = heap_.size();
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) { return !entry_live(e); }),
              heap_.end());
  telemetry::Registry& reg = telemetry::current();
  reg.add(reg.metrics().sim_queue_compactions);
  reg.add(reg.metrics().sim_queue_compacted_entries, before - heap_.size());
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) sift_down(i);
}

std::pair<TimeNs, EventQueue::Callback> EventQueue::pop() {
  DT_ASSERT(live_ > 0, "pop on empty event queue");
  drop_dead_top();
  const HeapEntry top = heap_.front();
  const auto slot = static_cast<std::uint32_t>(top.key & EventId::kSlotMask);
  Callback cb = std::move(slots_[slot].cb);
  // The root stays in place, dead, for the next push to overwrite.
  release_slot(slot);
  --live_;
  if (live_ == 0) heap_.clear();  // every entry left is dead
  return {top.time, std::move(cb)};
}

}  // namespace dyntrace::sim
