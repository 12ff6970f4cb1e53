// Synchronisation primitives for simulated processes.
//
// All wake-ups go through Engine::post, i.e. a woken coroutine resumes as a
// fresh event at the current virtual time, never re-entrantly inside the
// waker.  Waiter queues are FIFO, which keeps runs deterministic.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>

#include "sim/engine.hpp"
#include "support/common.hpp"

namespace dyntrace::sim {

/// One-shot event: wait() suspends until fire(); waits after fire() return
/// immediately.  Mirrors a latch with count 1.
class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(engine) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  bool fired() const { return fired_; }
  std::size_t waiter_count() const { return waiters_.size(); }

  void fire() {
    if (fired_) return;
    fired_ = true;
    for (auto h : waiters_) engine_.post(h);
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Trigger& trigger;
      bool await_ready() const noexcept { return trigger.fired_; }
      void await_suspend(std::coroutine_handle<> h) { trigger.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Timed wait: co_await trigger.wait_for(t) resumes when the trigger
  /// fires OR after `timeout` virtual nanoseconds, whichever comes first,
  /// and returns whether it fired.  The deadline path removes the waiter,
  /// so an abandoned wait never leaks; fire() and the timer racing at one
  /// timestamp resolve to whoever dequeues the waiter first.
  auto wait_for(TimeNs timeout) {
    struct Awaiter {
      Trigger& trigger;
      TimeNs timeout;
      std::coroutine_handle<> handle{};
      EventId timer{};
      bool timed_out = false;
      bool suspended = false;

      bool await_ready() const noexcept { return trigger.fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        suspended = true;
        handle = h;
        trigger.waiters_.push_back(h);
        timer = trigger.engine_.schedule_after(timeout, [this] {
          // fire() may have already claimed (and posted) this waiter at the
          // same timestamp; only a successful removal may resume it here.
          if (trigger.remove_waiter(handle)) {
            timed_out = true;
            handle.resume();
          }
        });
      }
      bool await_resume() {
        if (suspended && !timed_out) trigger.engine_.cancel(timer);
        return !timed_out;
      }
    };
    return Awaiter{*this, timeout};
  }

 private:
  bool remove_waiter(std::coroutine_handle<> h) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == h) {
        waiters_.erase(it);
        return true;
      }
    }
    return false;
  }

  Engine& engine_;
  bool fired_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Reusable broadcast/unicast notification (no payload, no memory: a wait
/// that starts after a notify misses it).
class Condition {
 public:
  explicit Condition(Engine& engine) : engine_(engine) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  std::size_t waiter_count() const { return waiters_.size(); }

  void notify_one() {
    if (waiters_.empty()) return;
    engine_.post(waiters_.front());
    waiters_.pop_front();
  }

  void notify_all() {
    for (auto h : waiters_) engine_.post(h);
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Condition& cond;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { cond.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& engine_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Cyclic barrier for a fixed number of participants.  The N-th arrival
/// releases everyone and resets the barrier for the next cycle.
class SimBarrier {
 public:
  SimBarrier(Engine& engine, std::size_t participants)
      : engine_(engine), participants_(participants) {
    DT_ASSERT(participants >= 1);
  }
  SimBarrier(const SimBarrier&) = delete;
  SimBarrier& operator=(const SimBarrier&) = delete;

  std::size_t participants() const { return participants_; }
  std::uint64_t generation() const { return generation_; }

  auto arrive_and_wait() {
    struct Awaiter {
      SimBarrier& barrier;
      bool await_ready() const noexcept {
        // The last arrival releases everyone and never suspends.  The
        // release must happen HERE, not in await_resume: a released waiter
        // resumes later (posted), and by then the next cycle's arrivals may
        // be queued -- re-checking the count on resume would release the
        // next generation early.
        if (barrier.waiters_.size() + 1 == barrier.participants_) {
          barrier.release_all();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { barrier.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  void release_all() {
    ++generation_;
    for (auto h : waiters_) engine_.post(h);
    waiters_.clear();
  }

  Engine& engine_;
  std::size_t participants_;
  std::uint64_t generation_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace dyntrace::sim
