// Simulated OS processes and threads.
//
// A SimProcess models one address space: a ProgramImage (its patchable
// code), named memory words ("flags", used by spin-wait snippets), a
// registry of instrumentation-library entry points, and one or more
// SimThreads.  A SimThread executes workload code written as coroutines and
// provides the function-call protocol that fires static instrumentation and
// dynamic probes.
//
// Process control mirrors ptrace/DPCL semantics: suspend() freezes all
// threads (a thread mid-computation stops immediately and keeps its
// remaining work; a blocked thread parks at its next scheduling point),
// resume() lets them continue.  Patching a suspended process is how DPCL
// guarantees a consistent image.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "image/image.hpp"
#include "machine/cluster.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace dyntrace::proc {

class SimProcess;
class SimThread;

/// Instrumentation-library entry points callable from snippets and from
/// statically instrumented code.  Libraries (VT, the MPI wrappers, the
/// OpenMP runtime) register their functions per process at "link time".
/// The image::LibEntry entry points live in fixed slots, so a call site
/// bound to an entry reaches its function by index; other names are kept
/// by name for by-name calls.
class LibraryRegistry {
 public:
  /// Arguments are borrowed: the caller co_awaits the call immediately,
  /// so their storage outlives it.
  using Args = std::span<const std::int64_t>;
  using LibFunction = std::function<sim::Coro<void>(SimThread&, Args)>;

  /// Register (or replace) an entry point.
  void register_function(image::LibEntry entry, LibFunction fn);
  void register_function(std::string_view name, LibFunction fn);

  /// Null when nothing is linked under the entry or name.
  const LibFunction* find(image::LibEntry entry) const {
    const LibFunction& fn = entries_[static_cast<std::size_t>(entry)];
    return fn ? &fn : nullptr;
  }
  const LibFunction* find(std::string_view name) const;
  std::size_t size() const;

 private:
  std::array<LibFunction, image::kLibEntryCount> entries_;
  std::map<std::string, LibFunction, std::less<>> custom_;
};

class SimThread {
 public:
  using BodyFn = std::function<sim::Coro<void>(SimThread&)>;

  SimThread(SimProcess& process, int tid, int cpu);
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  SimProcess& process() { return process_; }
  const SimProcess& process() const { return process_; }
  int tid() const { return tid_; }
  int cpu() const { return cpu_; }
  sim::Engine& engine();

  class ComputeAwaiter;

  /// co_await compute(work): burn `work` nanoseconds of CPU.
  /// Interruptible: if the process is suspended mid-compute, the thread
  /// freezes with the remaining work intact and continues after resume().
  /// An awaiter, not a coroutine: a compute that starts while the process
  /// runs costs no frame, and one that would be the next event anyway runs
  /// in place (sim::Engine::advance_if_next).
  ComputeAwaiter compute(sim::TimeNs work);

  /// Park here while the process is suspended; returns immediately
  /// otherwise.  Blocking operations (message receives etc.) call this
  /// after waking so a suspended process makes no progress.  A gate is a
  /// zero-work compute.
  ComputeAwaiter gate();

  /// Execute a workload function: dynamic entry probes, static VT_begin
  /// (if the Guide compiler instrumented this function), the body, static
  /// VT_end, dynamic exit probes.
  /// Takes the body by value, so a caller may return this coroutine
  /// without keeping the body alive itself.
  sim::Coro<void> call_function(image::FunctionId fn, BodyFn body);

  /// call_function for a leaf whose body is compute(work): the same
  /// protocol with no body function and no body coroutine.
  sim::Coro<void> call_function(image::FunctionId fn, sim::TimeNs work);

  /// Execute an instrumentation snippet (may block: spin waits).
  sim::Coro<void> exec_snippet(const image::Snippet& snippet);

  /// Call a registered library function by name (tests and examples; the
  /// simulated call path goes through bound entries).
  sim::Coro<void> lib_call(std::string_view name, LibraryRegistry::Args args = {});

  /// Current workload-function nesting depth (0 outside any function).
  int call_depth() const { return call_depth_; }

  /// Innermost workload function currently executing, or kInvalidFunction
  /// outside any call -- what a statistical sampler's interrupt handler
  /// would read from the program counter.
  image::FunctionId current_function() const {
    return fn_stack_.empty() ? image::kInvalidFunction : fn_stack_.back();
  }

  /// Number of times this thread entered any workload function.
  std::uint64_t function_entries() const { return function_entries_; }

 private:
  friend class SimProcess;

  /// The function linked at `entry`; throws the unresolved-function error
  /// when nothing is.
  const LibraryRegistry::LibFunction& linked(image::LibEntry entry) const;

  /// The probe protocol around a body: `body` when leaf_work < 0,
  /// otherwise compute(leaf_work).
  sim::Coro<void> run_call(image::FunctionId fn, BodyFn body, sim::TimeNs leaf_work);

  /// exec_snippet's general case (everything but a bound library call).
  sim::Coro<void> exec_node(const image::Snippet& snippet);

  /// compute's slow path: wait out a suspension, then compute `work`.
  sim::Coro<void> compute_after_resume(sim::TimeNs work);

  /// A compute waiting on its timer; suspend() cancels the timer and
  /// resume() posts the rest of the work.
  struct SleepState {
    sim::EventId timer;
    std::coroutine_handle<> handle;
    ComputeAwaiter* awaiter = nullptr;
    sim::TimeNs wake_at = 0;
    sim::TimeNs remaining = 0;  ///< set when interrupted
    bool interrupted = false;
  };

  SimProcess& process_;
  int tid_;
  int cpu_;
  int call_depth_ = 0;
  std::vector<image::FunctionId> fn_stack_;
  std::uint64_t function_entries_ = 0;
  std::optional<SleepState> sleep_;
};

class SimThread::ComputeAwaiter {
 public:
  ComputeAwaiter(SimThread& thread, sim::TimeNs work) : thread_(thread), work_(work) {
    DT_ASSERT(work >= 0, "negative work");
  }

  bool await_ready();
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h);
  void await_resume() {
    if (rest_.valid()) rest_.await_resume();
  }

 private:
  friend class SimProcess;

  SimThread& thread_;
  sim::TimeNs work_;
  /// compute_after_resume, when the process was suspended at entry or the
  /// timer was interrupted; it resumes the awaiting coroutine when done.
  sim::Coro<void> rest_;
};

inline SimThread::ComputeAwaiter SimThread::compute(sim::TimeNs work) {
  return ComputeAwaiter(*this, work);
}

inline SimThread::ComputeAwaiter SimThread::gate() { return compute(0); }

class SimProcess {
 public:
  using CallbackSink = std::function<void(const std::string& tag, int pid)>;

  /// Creates the process with one initial thread (tid 0) on `first_cpu`.
  SimProcess(machine::Cluster& cluster, int pid, int node, int first_cpu,
             image::ProgramImage img);
  SimProcess(const SimProcess&) = delete;
  SimProcess& operator=(const SimProcess&) = delete;

  machine::Cluster& cluster() { return cluster_; }
  const machine::Cluster& cluster() const { return cluster_; }
  /// The cluster's engine, which runs every event the process schedules.
  sim::Engine& engine() { return engine_; }
  int pid() const { return pid_; }
  int node() const { return node_; }

  image::ProgramImage& image() { return image_; }
  const image::ProgramImage& image() const { return image_; }
  LibraryRegistry& registry() { return registry_; }

  // --- threads --------------------------------------------------------------

  SimThread& main_thread() { return *threads_.front(); }
  SimThread& add_thread(int cpu);
  const std::vector<std::unique_ptr<SimThread>>& threads() const { return threads_; }

  // --- process control (ptrace / DPCL suspend) ------------------------------

  bool suspended() const { return suspended_; }
  void suspend();
  void resume();
  sim::Condition& resumed_condition() { return resumed_; }
  std::uint64_t suspend_count() const { return suspend_count_; }

  // --- named memory words ----------------------------------------------------

  std::int64_t flag(const std::string& name) const;
  void set_flag(const std::string& name, std::int64_t value);
  /// Block until the flag equals `value` (level-triggered).
  sim::Coro<void> wait_flag(const std::string& name, std::int64_t value);

  // --- instrumenter callback channel -----------------------------------------

  void set_callback_sink(CallbackSink sink) { callback_sink_ = std::move(sink); }
  /// Invoked by CallbackOp snippets; no-op (with a warning) if unattached.
  void send_callback(const std::string& tag);

  // --- lifecycle --------------------------------------------------------------

  sim::Trigger& terminated() { return terminated_; }
  void mark_terminated() { terminated_.fire(); }

  /// Lost to a fault: the control plane abandoned this process (its node's
  /// daemon died or it was killed by a fault plan).  Orthogonal to
  /// terminated(): a lost process may still be running app code, but no
  /// instrumentation request will reach it again.
  bool lost() const { return lost_; }
  void mark_lost() { lost_ = true; }

 private:
  friend class SimThread;

  machine::Cluster& cluster_;
  int pid_;
  int node_;
  sim::Engine& engine_;  ///< declared before the sync members below
  int first_cpu_;
  image::ProgramImage image_;
  LibraryRegistry registry_;
  std::vector<std::unique_ptr<SimThread>> threads_;

  bool suspended_ = false;
  std::uint64_t suspend_count_ = 0;
  sim::Condition resumed_;

  std::map<std::string, std::int64_t> flags_;
  std::map<std::string, std::unique_ptr<sim::Condition>> flag_waiters_;

  CallbackSink callback_sink_;
  sim::Trigger terminated_;
  bool lost_ = false;
};

inline sim::Engine& SimThread::engine() { return process_.engine(); }

inline bool SimThread::ComputeAwaiter::await_ready() {
  if (thread_.process_.suspended()) return false;
  if (work_ == 0) return true;
  sim::Engine& engine = thread_.engine();
  return engine.advance_if_next(engine.now() + work_);
}

}  // namespace dyntrace::proc
