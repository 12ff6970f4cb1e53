#include "proc/job.hpp"

#include <algorithm>

#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::proc {

ParallelJob::ParallelJob(machine::Cluster& cluster, std::string name)
    : cluster_(cluster), name_(std::move(name)), all_done_(cluster.engine()) {}

SimProcess& ParallelJob::add_process(image::ProgramImage img, int node, int cpu) {
  DT_ASSERT(!started_, "cannot add processes to a started job");
  const int pid = static_cast<int>(processes_.size());
  processes_.push_back(std::make_unique<SimProcess>(cluster_, pid, node, cpu, std::move(img)));
  mains_.emplace_back();
  return *processes_.back();
}

void ParallelJob::set_main(int pid, MainFn main) {
  DT_ASSERT(pid >= 0 && static_cast<std::size_t>(pid) < mains_.size());
  mains_[static_cast<std::size_t>(pid)] = std::move(main);
}

SimProcess& ParallelJob::process(int pid) {
  DT_ASSERT(pid >= 0 && static_cast<std::size_t>(pid) < processes_.size(), "pid ", pid,
            " out of range");
  return *processes_[static_cast<std::size_t>(pid)];
}

sim::Coro<void> ParallelJob::run_process(SimProcess& process, MainFn main) {
  co_await main(process.main_thread());
  process.mark_terminated();
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(finish_mutex_);
    finish_time_ = std::max(finish_time_, process.engine().now());
    last = ++finished_ == processes_.size();
  }
  if (last) all_done_.fire();
}

void ParallelJob::start(SimThread* origin) {
  DT_ASSERT(!started_, "job already started");
  DT_EXPECT(!processes_.empty(), "job '", name_, "' has no processes");
  for (std::size_t pid = 0; pid < processes_.size(); ++pid) {
    DT_EXPECT(mains_[pid] != nullptr, "job '", name_, "': process ", pid, " has no main");
  }
  started_ = true;
  sim::Engine& origin_engine = origin != nullptr ? origin->engine() : cluster_.engine();
  const int origin_node = origin != nullptr ? origin->process().node() : -1;
  start_time_ = origin_engine.now();
  for (std::size_t pid = 0; pid < processes_.size(); ++pid) {
    SimProcess& proc = *processes_[pid];
    if (origin != nullptr && proc.node() != origin_node) {
      // POE fan-out: one zero-byte control message from the submitting node
      // starts each remote process.
      const sim::TimeNs delay =
          cluster_.message_delay(origin_node, proc.node(), 0, start_time_);
      proc.engine().schedule_at(start_time_ + delay, [this, pid] {
        SimProcess& p = *processes_[pid];
        p.engine().spawn(run_process(p, mains_[pid]),
                         str::format("%s.rank%zu", name_.c_str(), pid));
      });
    } else {
      proc.engine().spawn(run_process(proc, mains_[pid]),
                          str::format("%s.rank%zu", name_.c_str(), pid));
    }
  }
}

}  // namespace dyntrace::proc
