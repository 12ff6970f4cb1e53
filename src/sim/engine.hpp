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
#pragma once

#include <coroutine>
#include <cstdint>
#include <string>
#include <unordered_map>
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

  EventId schedule_at(TimeNs at, EventQueue::Callback cb);
  EventId schedule_after(TimeNs delay, EventQueue::Callback cb);
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Resume a coroutine at the current time (after already-scheduled events
  /// for this timestamp).  All synchronisation primitives wake waiters this
  /// way, which rules out re-entrant resumption.
  void post(std::coroutine_handle<> h);

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

  /// co_await engine.sleep(d): suspend the calling coroutine for d >= 0
  /// virtual nanoseconds.
  auto sleep(TimeNs duration) {
    DT_ASSERT(duration >= 0, "cannot sleep a negative duration");
    struct Awaiter {
      Engine& engine;
      TimeNs duration;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine.schedule_after(duration, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, duration};
  }

  /// co_await engine.yield(): reschedule after other events at this time.
  auto yield() { return sleep(0); }

  std::uint64_t events_executed() const { return events_executed_; }

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
  std::uint64_t next_root_id_ = 0;

  struct RootInfo {
    std::coroutine_handle<> handle;
    std::string name;
    bool daemon = false;
  };
  std::unordered_map<std::uint64_t, RootInfo> roots_;

  std::exception_ptr failure_;
};

}  // namespace dyntrace::sim
