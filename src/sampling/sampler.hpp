// Statistical sampling profiler (paper §2, "Methods of Profiling").
//
// Captures the program state at regular intervals: a timer fires every
// `interval`, briefly interrupts the process (like a SIGPROF handler
// stealing cycles from the application), and records the innermost
// workload function on every thread.  The resulting histogram maps samples
// to a statistical profile of the application.
//
// §2's trade-off is modelled faithfully: each sample perturbs the target
// by `per_sample_cost`, so total overhead is proportional to 1/interval --
// "the smaller the sampling interval, the higher the accuracy and
// overhead."  This profiler is the cheap "where should I look?" half of
// ephemeral instrumentation (Traub et al. [15]); the hybrid controller in
// src/dynprof/hybrid.hpp combines it with dynprof's detailed probes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "proc/process.hpp"
#include "telemetry/registry.hpp"

namespace dyntrace::sampling {

class Sampler {
 public:
  struct Options {
    sim::TimeNs interval = sim::milliseconds(10);
    /// Time stolen from the target per sample (signal delivery, unwind,
    /// histogram update).
    sim::TimeNs per_sample_cost = sim::microseconds(12);
  };

  Sampler(proc::SimProcess& process, Options options);
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Begin sampling (spawns the timer coroutine at the current time).
  void start();
  /// Stop after the in-flight sample, keeping the histogram.
  void stop();
  bool running() const { return running_; }

  /// samples[fn] = hits; kInvalidFunction = outside any workload function.
  /// Materialized from the keyed telemetry counter that replaced the old
  /// private histogram (PR 5 bugfix), hence by value.
  std::unordered_map<image::FunctionId, std::uint64_t> histogram() const;
  std::uint64_t total_samples() const { return samples_.total(); }

 private:
  sim::Coro<void> run();

  proc::SimProcess& process_;
  Options options_;
  bool running_ = false;
  std::uint64_t generation_ = 0;  ///< invalidates stale timer coroutines
  /// Per-function sample counts.  A telemetry::KeyedCounter is data-plane
  /// (always counts regardless of the registry level); attaching it to the
  /// run's registry additionally exports it in the stats JSON.
  telemetry::KeyedCounter samples_;
};

}  // namespace dyntrace::sampling
