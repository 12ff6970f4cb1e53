#include "omp/runtime.hpp"

#include <algorithm>
#include <bit>

#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::omp {

namespace {

// Guide-runtime software costs (modelled; see DESIGN.md §2).
constexpr sim::TimeNs kForkBase = sim::microseconds(3.0);
constexpr sim::TimeNs kForkPerThread = sim::microseconds(1.1);
constexpr sim::TimeNs kBarrierPerRound = sim::microseconds(0.6);
constexpr sim::TimeNs kStaticSchedCost = sim::microseconds(0.3);
constexpr sim::TimeNs kDynamicClaimCost = sim::microseconds(0.35);

int ceil_log2(int n) { return n <= 1 ? 0 : std::bit_width(static_cast<unsigned>(n - 1)); }

}  // namespace

OmpRuntime::OmpRuntime(proc::SimProcess& process, int num_threads)
    : process_(process),
      num_threads_(num_threads),
      team_barrier_(process.engine(), static_cast<std::size_t>(num_threads)),
      thread_loop_seq_(static_cast<std::size_t>(num_threads), 0) {
  DT_EXPECT(num_threads >= 1, "team needs at least one thread");
  DT_EXPECT(num_threads <= process.cluster().spec().cpus_per_node,
            "OpenMP team of ", num_threads, " threads does not fit on a ",
            process.cluster().spec().cpus_per_node, "-cpu node");
  team_.push_back(&process.main_thread());
  const int first_cpu = process.main_thread().cpu();
  for (int t = 1; t < num_threads; ++t) {
    team_.push_back(&process.add_thread(first_cpu + t));
  }
}

sim::Coro<void> OmpRuntime::parallel(proc::SimThread& master, RegionFn body) {
  DT_EXPECT(!in_region_, "nested parallel regions are not supported (Guide default)");
  DT_ASSERT(&master == team_[0], "parallel() must be entered by the team master");
  in_region_ = true;
  const int region_id = next_region_id_++;

  if (listener_ != nullptr) {
    co_await listener_->on_parallel_begin(master, region_id, num_threads_);
  }
  co_await master.compute(kForkBase + kForkPerThread * (num_threads_ - 1));

  // Fork: each worker runs as its own simulation process rooted on its
  // SimThread; join via a completion trigger.
  sim::Trigger join(process_.engine());
  int remaining = num_threads_ - 1;

  auto worker_main = [this, region_id](proc::SimThread& worker, const RegionFn& fn,
                                       int thread_num, sim::Trigger& done,
                                       int& left) -> sim::Coro<void> {
    if (listener_ != nullptr) co_await listener_->on_worker_begin(worker, region_id);
    co_await fn(worker, thread_num, num_threads_);
    if (listener_ != nullptr) co_await listener_->on_worker_end(worker, region_id);
    if (--left == 0) done.fire();
  };

  for (int t = 1; t < num_threads_; ++t) {
    process_.engine().spawn(worker_main(*team_[t], body, t, join, remaining),
                            str::format("omp.region%d.worker%d", region_id, t));
  }

  co_await body(master, 0, num_threads_);
  if (num_threads_ > 1) co_await join.wait();

  if (listener_ != nullptr) co_await listener_->on_parallel_end(master, region_id);
  in_region_ = false;
}

sim::Coro<void> OmpRuntime::barrier(proc::SimThread& thread) {
  co_await thread.compute(kBarrierPerRound * (1 + ceil_log2(num_threads_)));
  co_await team_barrier_.arrive_and_wait();
  co_await thread.gate();
}

OmpRuntime::LoopState& OmpRuntime::loop_state(int thread_num) {
  const std::uint64_t seq = thread_loop_seq_[static_cast<std::size_t>(thread_num)]++;
  auto [it, inserted] = loops_.try_emplace(seq);
  ++it->second.entered;
  return it->second;
}

sim::Coro<void> OmpRuntime::for_each(proc::SimThread& thread, int thread_num,
                                     std::int64_t iterations, Schedule schedule,
                                     std::int64_t chunk, const IterFn& body) {
  DT_EXPECT(in_region_, "worksharing loop outside a parallel region");
  DT_ASSERT(iterations >= 0);
  const int t = num_threads_;

  switch (schedule) {
    case Schedule::kStatic: {
      co_await thread.compute(kStaticSchedCost);
      // Block distribution, matching Guide's schedule(static).
      const std::int64_t base = iterations / t;
      const std::int64_t rem = iterations % t;
      const std::int64_t mine = base + (thread_num < rem ? 1 : 0);
      const std::int64_t start =
          thread_num * base + std::min<std::int64_t>(thread_num, rem);
      for (std::int64_t i = start; i < start + mine; ++i) {
        co_await body(thread, i);
      }
      break;
    }
    case Schedule::kDynamic:
    case Schedule::kGuided: {
      LoopState& state = loop_state(thread_num);
      if (state.entered == 1) {
        state.next = 0;
        state.remaining = iterations;
      }
      const std::int64_t min_chunk = std::max<std::int64_t>(chunk, 1);
      while (true) {
        // Coroutines only interleave at co_await, so claiming a chunk from
        // the shared counter needs no lock.
        if (state.remaining <= 0) break;
        std::int64_t take = min_chunk;
        if (schedule == Schedule::kGuided) {
          take = std::max<std::int64_t>(state.remaining / (2 * t), min_chunk);
        }
        take = std::min(take, state.remaining);
        const std::int64_t start = state.next;
        state.next += take;
        state.remaining -= take;
        co_await thread.compute(kDynamicClaimCost);
        for (std::int64_t i = start; i < start + take; ++i) {
          co_await body(thread, i);
        }
      }
      break;
    }
  }
  // Implicit end-of-loop barrier (no `nowait` modelled).
  co_await barrier(thread);
}

}  // namespace dyntrace::omp
