#include "sim/event_queue.hpp"

#include <algorithm>

#include "support/common.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::sim {

namespace {

/// Below this heap size compaction is never worth the rebuild.
constexpr std::size_t kCompactMinEntries = 64;

/// 4-ary heap indexing.
constexpr std::size_t kArity = 4;

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
    const std::size_t last_child = std::min(first_child + kArity, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
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

EventId EventQueue::schedule(TimeNs at, Callback cb) {
  DT_ASSERT(cb != nullptr, "cannot schedule a null callback");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    DT_ASSERT(slot != EventId::kNoSlot, "event slot table overflow");
    slots_.emplace_back();
    // Room for every slot on the free list, so releasing one (inside a
    // pop) never allocates.
    if (free_slots_.capacity() < slots_.size()) free_slots_.reserve(slots_.capacity());
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  heap_.push_back(HeapEntry{at, next_seq_++, slot, s.gen});
  sift_up(heap_.size() - 1);
  ++live_;
  return EventId{slot, s.gen};
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  ++s.gen;  // invalidates the heap entry and any outstanding EventId
  free_slots_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  if (id.slot >= slots_.size() || slots_[id.slot].gen != id.gen) return false;
  release_slot(id.slot);
  DT_ASSERT(live_ > 0);
  --live_;
  maybe_compact();
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
  drop_dead_top();
  DT_ASSERT(!heap_.empty(), "pop on empty event queue");
  const HeapEntry top = heap_.front();
  pop_root();
  Callback cb = std::move(slots_[top.slot].cb);
  release_slot(top.slot);
  DT_ASSERT(live_ > 0);
  --live_;
  return {top.time, std::move(cb)};
}

}  // namespace dyntrace::sim
