// A parallel job: the set of processes started together by the POE-style
// launcher.
//
// Mirrors the paper's tool model: the job is *created* with every process
// suspended at its first instruction (nothing scheduled yet), the
// instrumenter may patch images, and only then is the job start()ed.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "proc/process.hpp"

namespace dyntrace::proc {

class ParallelJob {
 public:
  using MainFn = SimThread::BodyFn;

  ParallelJob(machine::Cluster& cluster, std::string name);
  ParallelJob(const ParallelJob&) = delete;
  ParallelJob& operator=(const ParallelJob&) = delete;

  const std::string& name() const { return name_; }
  machine::Cluster& cluster() { return cluster_; }

  /// Add a process (pid = insertion index) placed on `node`, main thread on
  /// `cpu`.  Must be called before start().
  SimProcess& add_process(image::ProgramImage img, int node, int cpu);

  /// Set the entry point of a process's main thread.
  void set_main(int pid, MainFn main);

  /// Begin execution of every process.  Pre-run (origin == nullptr) every
  /// main starts at the current time.  Started mid-run from a simulated
  /// thread (the tool issuing the POE launch), pass that thread as
  /// `origin`: starting a process on a *different* node costs one zero-byte
  /// control message from the origin node -- the POE fan-out.
  void start(SimThread* origin = nullptr);
  bool started() const { return started_; }

  SimProcess& process(int pid);
  std::size_t size() const { return processes_.size(); }
  const std::vector<std::unique_ptr<SimProcess>>& processes() const { return processes_; }

  /// Fires when every process's main returns.
  sim::Trigger& all_done() { return all_done_; }

  /// Simulation time at which the last process finished (valid once
  /// all_done() has fired).
  sim::TimeNs finish_time() const { return finish_time_; }
  sim::TimeNs start_time() const { return start_time_; }

 private:
  sim::Coro<void> run_process(SimProcess& process, MainFn main);

  machine::Cluster& cluster_;
  std::string name_;
  std::vector<std::unique_ptr<SimProcess>> processes_;
  std::vector<MainFn> mains_;
  bool started_ = false;
  // Finish bookkeeping: count and max-time are order-independent.
  std::size_t finished_ = 0;
  sim::TimeNs start_time_ = 0;
  sim::TimeNs finish_time_ = 0;
  sim::Trigger all_done_;
};

}  // namespace dyntrace::proc
