// The discrete-event simulation engine.
//
// The engine owns virtual time and the pending-event set, and drives root
// coroutine processes spawned with spawn().  Determinism: events at equal
// timestamps fire in scheduling order, and nothing in the engine consults
// wall-clock time or unordered iteration.
//
// Error model: an exception escaping a root process stops the run and is
// rethrown from run().  If all events drain while non-daemon processes are
// still blocked, run() throws DeadlockError naming the stuck processes.
//
// In-place wake-ups.  A coroutine that is about to sleep until `at` asks
// advance_if_next(at) first.  Inside run_until_blocked, with no failure
// recorded and `at` within the deadline, a timer at `at` that is strictly
// earlier than every pending event would be the very next event popped, so
// the engine advances the clock and counts the event without queueing it,
// and the coroutine simply keeps running.  This is exact, not a model
// change, because of one invariant every wake-up path keeps:
//
//   A callback that resumes a coroutine does so as its last action.
//
// The sleep timer, Trigger::wait_for's timeout, the Watchdog timer (whose
// expiry resumes a mailbox waiter), MatchQueue::recv_for's timeout,
// post(), spawn() and proc's compute timer all end with the resume.  So
// once the sleeping coroutine would have suspended, control returns
// straight to the run loop and the next thing that happens is the pop of
// that very timer: nothing runs in between that could observe the clock or
// schedule an earlier event.  A tie with a pending event is not strict, so
// the wake-up goes through the queue and keeps its place behind it; step()
// never runs a wake-up in place.  A new wake-up path must keep the
// invariant (or not call advance_if_next).
//
// A coroutine that keeps running in place never returns to the run loop,
// and where symmetric transfer is not compiled as a tail call (unoptimized
// and sanitizer builds) every call it makes and finishes leaves host stack
// behind.  So at most kMaxInlineStreak wake-ups run in place per popped
// event; the next one is queued, as it would have been anyway, and the
// stack unwinds.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "support/common.hpp"

namespace dyntrace::sim {

/// Thrown by Engine::run() when non-daemon processes remain blocked with no
/// pending events.
class DeadlockError : public Error {
 public:
  explicit DeadlockError(std::string msg) : Error(std::move(msg)) {}
};

class Engine {
 public:
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- time and events -----------------------------------------------------

  TimeNs now() const { return now_; }

  EventId schedule_at(TimeNs at, EventQueue::Callback cb) {
    DT_ASSERT(at >= now_, "cannot schedule into the past (at=", at, " now=", now_, ")");
    return queue_.schedule(at, std::move(cb));
  }
  EventId schedule_after(TimeNs delay, EventQueue::Callback cb) {
    DT_ASSERT(delay >= 0, "negative delay");
    return queue_.schedule(now_ + delay, std::move(cb));
  }
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Take an event sequence number now and schedule under it later
  /// (EventQueue::reserve_seq): the event keeps the place among
  /// equal-time events that scheduling at reservation time would give it.
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }
  EventId schedule_reserved(TimeNs at, std::uint64_t seq, EventQueue::Callback cb) {
    DT_ASSERT(at >= now_, "cannot schedule into the past (at=", at, " now=", now_, ")");
    return queue_.schedule_reserved(at, seq, std::move(cb));
  }

  /// Event-queue op counts since construction: pushes (scheduled events,
  /// in-place wake-ups excluded) and successful cancels.
  std::uint64_t queue_pushes() const { return queue_.pushes(); }
  std::uint64_t queue_cancels() const { return queue_.cancels(); }

  /// Resume a coroutine at the current time (after already-scheduled events
  /// for this timestamp).  All synchronisation primitives wake waiters this
  /// way, which rules out re-entrant resumption.
  void post(std::coroutine_handle<> h) {
    DT_ASSERT(h && !h.done(), "posting an invalid coroutine handle");
    queue_.schedule(now_, [h] { h.resume(); });
  }

  // --- processes -----------------------------------------------------------

  struct SpawnOptions {
    /// Daemons are excluded from deadlock detection and are torn down when
    /// the engine is destroyed (model: DPCL daemons blocking on requests).
    bool daemon = false;
  };

  /// Start a root process.  The body begins executing at the current
  /// simulation time, after events already scheduled for this timestamp.
  void spawn(Coro<void> body, std::string name, SpawnOptions options);
  void spawn(Coro<void> body, std::string name) {
    spawn(std::move(body), std::move(name), SpawnOptions{});
  }

  std::size_t processes_alive() const { return alive_; }
  std::size_t daemons_alive() const { return daemons_alive_; }

  /// Names of live non-daemon processes, sorted (deadlock reporting).
  std::vector<std::string> blocked_process_names() const;

  // --- running -------------------------------------------------------------

  /// Execute a single event.  Returns false if the queue is empty.
  bool step();

  /// Run until the event queue drains, a process fails, or `deadline` (if
  /// non-negative) is reached.  Rethrows the first process failure.  Throws
  /// DeadlockError if non-daemon processes remain after the queue drains.
  void run(TimeNs deadline = -1);

  /// Like run(), but blocked processes at the end are not an error.
  /// Returns the number of live non-daemon processes.
  std::size_t run_until_blocked(TimeNs deadline = -1);

  /// Run a wake-up at `at` in place (see the file comment): when the
  /// engine is inside run_until_blocked, no failure is recorded, `at` is
  /// within the deadline and strictly earlier than every pending event,
  /// advance the clock to `at`, count one executed event and return true.
  /// Otherwise change nothing and return false; the caller schedules.
  bool advance_if_next(TimeNs at) {
    DT_ASSERT(at >= now_, "cannot wake in the past (at=", at, " now=", now_, ")");
    if (!running_ || failure_ || (deadline_ >= 0 && at > deadline_)) return false;
    if (inline_streak_ >= kMaxInlineStreak) return false;
    const std::optional<TimeNs> next = queue_.next_time();
    if (next && at >= *next) return false;
    now_ = at;
    ++events_executed_;
    ++inline_wakeups_;
    ++inline_streak_;
    return true;
  }

  /// Most wake-ups run in place per popped event (see the file comment).
  static constexpr int kMaxInlineStreak = 64;

  /// co_await engine.sleep(d): suspend the calling coroutine for d >= 0
  /// virtual nanoseconds.
  auto sleep(TimeNs duration) {
    DT_ASSERT(duration >= 0, "cannot sleep a negative duration");
    struct Awaiter {
      Engine& engine;
      TimeNs duration;
      bool await_ready() { return engine.advance_if_next(engine.now_ + duration); }
      void await_suspend(std::coroutine_handle<> h) {
        engine.schedule_after(duration, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, duration};
  }

  /// co_await engine.yield(): reschedule after other events at this time.
  auto yield() { return sleep(0); }

  /// Events executed, wake-ups run in place included.
  std::uint64_t events_executed() const { return events_executed_; }
  /// The subset of events_executed() run in place by advance_if_next.
  std::uint64_t inline_wakeups() const { return inline_wakeups_; }

 private:
  struct RootDriver;  // detached driver coroutine for a root process

  RootDriver drive_root(Coro<void> body, std::uint64_t root_id, bool daemon);
  void record_failure(const std::string& name, std::exception_ptr error);
  void finish_root(std::uint64_t id, bool daemon);

  EventQueue queue_;
  TimeNs now_ = 0;
  std::size_t alive_ = 0;
  std::size_t daemons_alive_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t inline_wakeups_ = 0;
  std::uint64_t next_root_id_ = 0;
  int inline_streak_ = 0;  ///< in-place wake-ups since the last pop
  bool running_ = false;  ///< inside run_until_blocked
  TimeNs deadline_ = -1;  ///< run_until_blocked's deadline while running_

  struct RootInfo {
    std::coroutine_handle<> handle;
    std::string name;
    bool daemon = false;
  };
  std::unordered_map<std::uint64_t, RootInfo> roots_;

  std::exception_ptr failure_;
};

}  // namespace dyntrace::sim
