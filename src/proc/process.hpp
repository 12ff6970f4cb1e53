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

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
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
class LibraryRegistry {
 public:
  using LibFunction =
      std::function<sim::Coro<void>(SimThread&, const std::vector<std::int64_t>&)>;

  /// Register (or replace) an entry point.
  void register_function(std::string name, LibFunction fn);
  const LibFunction* find(const std::string& name) const;
  std::size_t size() const { return functions_.size(); }

 private:
  std::map<std::string, LibFunction> functions_;
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

  /// Burn `work` nanoseconds of CPU.  Interruptible: if the process is
  /// suspended mid-compute, the thread freezes with the remaining work
  /// intact and continues after resume().
  sim::Coro<void> compute(sim::TimeNs work);

  /// Park here while the process is suspended; returns immediately
  /// otherwise.  Blocking operations (message receives etc.) call this
  /// after waking so a suspended process makes no progress.
  sim::Coro<void> gate();

  /// Execute a workload function: dynamic entry probes, static VT_begin
  /// (if the Guide compiler instrumented this function), the body, static
  /// VT_end, dynamic exit probes.
  sim::Coro<void> call_function(image::FunctionId fn, const BodyFn& body);

  /// Execute an instrumentation snippet (may block: spin waits).
  sim::Coro<void> exec_snippet(const image::Snippet& snippet);

  /// Call a registered library function by name.
  sim::Coro<void> lib_call(const std::string& name, std::vector<std::int64_t> args = {});

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

  struct SleepState {
    sim::EventId timer;
    std::coroutine_handle<> handle;
    sim::TimeNs started = 0;
    sim::TimeNs consumed = 0;  ///< set when interrupted
    bool interrupted = false;
  };

  // Awaitable used by compute(); registered with the thread so suspend()
  // can cancel the timer.
  struct InterruptibleSleep;

  SimProcess& process_;
  int tid_;
  int cpu_;
  int call_depth_ = 0;
  std::vector<image::FunctionId> fn_stack_;
  std::uint64_t function_entries_ = 0;
  std::optional<SleepState> sleep_;
};

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

}  // namespace dyntrace::proc
