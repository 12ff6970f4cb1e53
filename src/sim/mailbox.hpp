// Message queues for simulated processes.
//
// Mailbox<T>   — FIFO queue with blocking recv(), and recv_for() whose
//                deadline a shared Watchdog keeps; the building block for
//                daemon request loops and the service's session drivers.
// MatchQueue<T> — queue with predicate-matched recv(); models an MPI-style
//                unexpected-message queue plus posted-receive list: a recv
//                takes the first queued item matching its predicate, or
//                blocks until a matching item is put.  Items are handed
//                directly to the matching waiter, so two waiters can never
//                race for the same item.
#pragma once

#include <coroutine>
#include <deque>
#include <functional>
#include <optional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/watchdog.hpp"
#include "support/common.hpp"

namespace dyntrace::sim {

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(engine) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  void put(T item) {
    items_.push_back(std::move(item));
    if (!waiters_.empty()) {
      engine_.post(waiters_.front());
      waiters_.pop_front();
    }
  }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    DT_ASSERT(waiters_.empty(), "try_recv while blocking receivers are waiting");
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Blocking receive: co_await mailbox.recv().
  auto recv() {
    struct Awaiter {
      Mailbox& box;
      bool await_ready() const noexcept {
        // Only take the fast path when no one is queued ahead of us.
        return !box.items_.empty() && box.waiters_.empty();
      }
      void await_suspend(std::coroutine_handle<> h) { box.waiters_.push_back(h); }
      T await_resume() {
        DT_ASSERT(!box.items_.empty(), "mailbox waiter woke with no item");
        T item = std::move(box.items_.front());
        box.items_.pop_front();
        return item;
      }
    };
    return Awaiter{*this};
  }

  /// Timed receive: like recv(), but gives up after `timeout` virtual
  /// nanoseconds and returns std::nullopt.  The deadline is kept by
  /// `watchdog` (watchdog.hpp), which arms one engine timer for all the
  /// waits it watches, so a wait that gets its item costs no timer of its
  /// own.  put() and the deadline racing at one timestamp resolve to
  /// whoever dequeues the waiter first.
  auto recv_for(Watchdog& watchdog, TimeNs timeout) {
    struct Awaiter {
      Mailbox& box;
      Watchdog& watchdog;
      TimeNs timeout;
      std::coroutine_handle<> handle{};
      Watchdog::Ticket ticket{};
      bool timed_out = false;
      bool suspended = false;

      bool await_ready() const noexcept {
        return !box.items_.empty() && box.waiters_.empty();
      }
      void await_suspend(std::coroutine_handle<> h) {
        suspended = true;
        handle = h;
        box.waiters_.push_back(h);
        ticket = watchdog.watch(box.engine_.now() + timeout, this, [](void* target) {
          Awaiter& self = *static_cast<Awaiter*>(target);
          if (self.box.remove_waiter(self.handle)) {
            self.timed_out = true;
            self.handle.resume();
          }
        });
      }
      std::optional<T> await_resume() {
        if (timed_out) return std::nullopt;
        if (suspended) watchdog.resolve(ticket);
        DT_ASSERT(!box.items_.empty(), "mailbox waiter woke with no item");
        T item = std::move(box.items_.front());
        box.items_.pop_front();
        return item;
      }
    };
    return Awaiter{*this, watchdog, timeout};
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
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> waiters_;
};

template <typename T>
class MatchQueue {
 public:
  using Predicate = std::function<bool(const T&)>;

  explicit MatchQueue(Engine& engine) : engine_(engine) {}
  MatchQueue(const MatchQueue&) = delete;
  MatchQueue& operator=(const MatchQueue&) = delete;

  std::size_t queued() const { return items_.size(); }
  std::size_t waiting() const { return waiters_.size(); }

  void put(T item) {
    // Hand to the first waiter whose predicate matches (FIFO priority).
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if ((*it)->predicate(item)) {
        Waiter* waiter = *it;
        waiters_.erase(it);
        waiter->slot.emplace(std::move(item));
        engine_.post(waiter->handle);
        return;
      }
    }
    items_.push_back(std::move(item));
  }

  /// Non-blocking matched receive.
  std::optional<T> try_recv(const Predicate& predicate) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (predicate(*it)) {
        T item = std::move(*it);
        items_.erase(it);
        return item;
      }
    }
    return std::nullopt;
  }

  /// Timed matched receive: like recv(pred), but gives up after `timeout`
  /// virtual nanoseconds and returns std::nullopt.  put() and the deadline
  /// racing at one timestamp resolve to whoever dequeues the waiter first.
  auto recv_for(Predicate predicate, TimeNs timeout) {
    struct Awaiter {
      MatchQueue& queue;
      TimeNs timeout;
      Waiter waiter;
      EventId timer{};
      bool timed_out = false;
      bool suspended = false;

      Awaiter(MatchQueue& q, Predicate p, TimeNs t)
          : queue(q), timeout(t), waiter{std::move(p), std::nullopt, {}} {}
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;

      bool await_ready() {
        auto item = queue.try_recv(waiter.predicate);
        if (item) {
          waiter.slot = std::move(item);
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        suspended = true;
        waiter.handle = h;
        queue.waiters_.push_back(&waiter);
        timer = queue.engine_.schedule_after(timeout, [this] {
          // put() may have already claimed (and posted) this waiter at the
          // same timestamp; only a successful removal may resume it here.
          if (queue.remove_waiter(&waiter)) {
            timed_out = true;
            waiter.handle.resume();
          }
        });
      }
      std::optional<T> await_resume() {
        if (timed_out) return std::nullopt;
        if (suspended) queue.engine_.cancel(timer);
        DT_ASSERT(waiter.slot.has_value(), "match-queue waiter woke without an item");
        return std::move(waiter.slot);
      }
    };
    return Awaiter{*this, std::move(predicate), timeout};
  }

  /// Blocking matched receive: co_await queue.recv(pred).
  auto recv(Predicate predicate) {
    struct Awaiter {
      MatchQueue& queue;
      Waiter waiter;

      Awaiter(MatchQueue& q, Predicate p) : queue(q), waiter{std::move(p), std::nullopt, {}} {}
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;

      bool await_ready() {
        auto item = queue.try_recv(waiter.predicate);
        if (item) {
          waiter.slot = std::move(item);
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        // `waiter` lives in this Awaiter, which lives in the suspended
        // coroutine frame; the pointer is stable until resumption.
        waiter.handle = h;
        queue.waiters_.push_back(&waiter);
      }
      T await_resume() {
        DT_ASSERT(waiter.slot.has_value(), "match-queue waiter woke without an item");
        return std::move(*waiter.slot);
      }
    };
    return Awaiter{*this, std::move(predicate)};
  }

 private:
  struct Waiter {
    Predicate predicate;
    std::optional<T> slot;
    std::coroutine_handle<> handle;
  };

  bool remove_waiter(Waiter* w) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == w) {
        waiters_.erase(it);
        return true;
      }
    }
    return false;
  }

  Engine& engine_;
  std::deque<T> items_;
  std::deque<Waiter*> waiters_;
};

}  // namespace dyntrace::sim
