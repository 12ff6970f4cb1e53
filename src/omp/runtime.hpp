// The simulated OpenMP runtime (the paper's Guide runtime library).
//
// The Guide compiler transforms OpenMP directives into calls to this
// runtime: parallel() forks a persistent team of SimThreads pinned to the
// node's CPUs, runs the region body on every team member, and joins at an
// implicit barrier.  for_each() implements worksharing with static,
// dynamic and guided schedules.  An OmpListener receives region/thread
// events -- this is the Guidetrace -> Vampirtrace event channel of VGV.
//
// All team threads share the process's single ProgramImage, which is the
// mechanism behind the paper's observation that dynamically instrumenting
// an OpenMP application costs O(1) rather than O(P) (Figure 9).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "proc/process.hpp"
#include "sim/sync.hpp"

namespace dyntrace::omp {

enum class Schedule : std::uint8_t { kStatic, kDynamic, kGuided };

/// Runtime events (consumed by the VT/Guidetrace glue).
class OmpListener {
 public:
  virtual ~OmpListener() = default;
  virtual sim::Coro<void> on_parallel_begin(proc::SimThread& master, int region_id,
                                            int num_threads) = 0;
  virtual sim::Coro<void> on_parallel_end(proc::SimThread& master, int region_id) = 0;
  virtual sim::Coro<void> on_worker_begin(proc::SimThread& worker, int region_id) = 0;
  virtual sim::Coro<void> on_worker_end(proc::SimThread& worker, int region_id) = 0;
};

class OmpRuntime {
 public:
  /// Region body: (thread, omp_get_thread_num, omp_get_num_threads).
  using RegionFn = std::function<sim::Coro<void>(proc::SimThread&, int, int)>;
  /// Loop body: (thread, iteration index).
  using IterFn = std::function<sim::Coro<void>(proc::SimThread&, std::int64_t)>;

  /// Creates the persistent team: num_threads-1 worker SimThreads pinned to
  /// consecutive CPUs after the master's.  Throws if the node is too small.
  OmpRuntime(proc::SimProcess& process, int num_threads);
  OmpRuntime(const OmpRuntime&) = delete;
  OmpRuntime& operator=(const OmpRuntime&) = delete;

  int num_threads() const { return num_threads_; }
  proc::SimProcess& process() { return process_; }

  void set_listener(OmpListener* listener) { listener_ = listener; }

  /// Fork/join a parallel region; `master` must be the process main thread
  /// (nested parallelism is not modelled, as in Guide's default).
  sim::Coro<void> parallel(proc::SimThread& master, RegionFn body);

  /// Worksharing loop inside a region: distributes [0, iterations) over the
  /// team.  Must be called by every team member with its own thread.
  /// Includes the implicit end-of-loop barrier (no nowait).
  sim::Coro<void> for_each(proc::SimThread& thread, int thread_num, std::int64_t iterations,
                           Schedule schedule, std::int64_t chunk, const IterFn& body);

  /// Explicit team barrier (also used for the loop-end implicit barrier).
  sim::Coro<void> barrier(proc::SimThread& thread);

  int regions_executed() const { return next_region_id_; }

 private:
  struct LoopState {
    std::int64_t next = 0;       ///< next unclaimed iteration (dynamic/guided)
    std::int64_t remaining = 0;  ///< iterations not yet claimed
    int entered = 0;             ///< team members that have joined this loop
  };

  // Per-thread loop sequence numbers pair each thread's Nth loop with the
  // shared LoopState for that loop.
  LoopState& loop_state(int thread_num);

  proc::SimProcess& process_;
  int num_threads_;
  std::vector<proc::SimThread*> team_;  ///< [0] = master
  OmpListener* listener_ = nullptr;

  sim::SimBarrier team_barrier_;

  int next_region_id_ = 0;
  bool in_region_ = false;

  std::uint64_t loop_seq_ = 0;                  ///< completed-loop counter
  std::vector<std::uint64_t> thread_loop_seq_;  ///< per-thread next loop number
  std::map<std::uint64_t, LoopState> loops_;
};

}  // namespace dyntrace::omp
