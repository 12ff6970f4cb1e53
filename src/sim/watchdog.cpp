#include "sim/watchdog.hpp"

#include <algorithm>

namespace dyntrace::sim {

namespace {

/// Below this many entries compaction is never worth the pass.
constexpr std::size_t kCompactMinEntries = 64;

}  // namespace

Watchdog::~Watchdog() { disarm(); }

void Watchdog::stand_down() {
  DT_ASSERT(waiting_ == 0, "standing a watchdog down while ", waiting_, " wait(s) remain");
  disarm();
  entries_.clear();
  head_ = 0;
}

Watchdog::Ticket Watchdog::watch(TimeNs at, void* target, Expire expire) {
  DT_ASSERT(at >= engine_.now(), "cannot watch a deadline in the past (at=", at,
            " now=", engine_.now(), ")");
  DT_ASSERT(expire != nullptr, "a watched wait needs an expiry");
  const std::uint64_t seq = engine_.reserve_seq();
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.target = target;
  s.expire = expire;
  const Entry entry{at, seq, slot, s.gen};
  ++waiting_;

  if (head_ == entries_.size() || earlier(entries_.back(), entry)) {
    entries_.push_back(entry);
  } else {
    const auto pos = std::upper_bound(entries_.begin() + static_cast<std::ptrdiff_t>(head_),
                                      entries_.end(), entry, earlier);
    entries_.insert(pos, entry);
  }
  maybe_compact();

  if (!is_armed_) {
    arm(entry);
  } else if (earlier(entry, armed_)) {
    disarm();
    arm(entry);
  }
  return Ticket{slot, entry.gen};
}

void Watchdog::resolve(Ticket ticket) {
  if (ticket.slot >= slots_.size() || slots_[ticket.slot].gen != ticket.gen) return;
  release(ticket.slot);
  DT_ASSERT(waiting_ > 0);
  // The armed timer stays, even with nothing left waiting: when it fires
  // it re-arms for the first waiting entry, or does nothing.
  if (--waiting_ == 0) {
    entries_.clear();
    head_ = 0;
  }
}

void Watchdog::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.target = nullptr;
  s.expire = nullptr;
  ++s.gen;  // the entry and its ticket go stale
  free_slots_.push_back(slot);
}

void Watchdog::arm(const Entry& e) {
  Watchdog* self = this;
  timer_ = engine_.schedule_reserved(e.at, e.seq, [self] { self->on_timer(); });
  armed_ = e;
  is_armed_ = true;
}

void Watchdog::disarm() {
  if (!is_armed_) return;
  engine_.cancel(timer_);
  ++cancels_;
  is_armed_ = false;
}

bool Watchdog::drop_resolved_front() {
  while (head_ < entries_.size() && !live(entries_[head_])) ++head_;
  if (head_ < entries_.size()) return true;
  entries_.clear();
  head_ = 0;
  return false;
}

void Watchdog::on_timer() {
  is_armed_ = false;
  if (!drop_resolved_front()) return;  // every wait it was armed for resolved
  const Entry front = entries_[head_];
  if (front.at != armed_.at || front.seq != armed_.seq) {
    // The entry this timer was armed for resolved; the next one is later.
    arm(front);
    return;
  }
  ++head_;
  const Slot due = slots_[front.slot];
  release(front.slot);
  --waiting_;
  if (drop_resolved_front()) arm(entries_[head_]);
  due.expire(due.target);  // may resume a coroutine: the last action
}

void Watchdog::maybe_compact() {
  // Resolved entries wait for the timer to pass them; drop them once they
  // outnumber the waiting ones so the list stays within 2x of waiting_.
  if (entries_.size() < kCompactMinEntries || entries_.size() <= 2 * waiting_) return;
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [this](const Entry& e) { return !live(e); }),
                 entries_.end());
  head_ = 0;
}

}  // namespace dyntrace::sim
