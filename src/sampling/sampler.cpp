#include "sampling/sampler.hpp"

#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::sampling {

Sampler::Sampler(proc::SimProcess& process, Options options)
    : process_(process),
      options_(options),
      samples_(str::format("sampling.pid%d.samples", process.pid())) {
  DT_EXPECT(options.interval > 0, "sampling interval must be positive");
  DT_EXPECT(options.per_sample_cost >= 0, "per-sample cost cannot be negative");
  samples_.attach(telemetry::current());
}

void Sampler::start() {
  DT_EXPECT(!running_, "sampler already running");
  running_ = true;
  ++generation_;
  process_.engine().spawn(run(),
                          str::format("sampler.pid%d.gen%llu", process_.pid(),
                                      static_cast<unsigned long long>(generation_)),
                          sim::Engine::SpawnOptions{.daemon = true});
}

void Sampler::stop() { running_ = false; }

sim::Coro<void> Sampler::run() {
  const std::uint64_t my_generation = generation_;
  sim::Engine& engine = process_.engine();
  while (running_ && generation_ == my_generation) {
    co_await engine.sleep(options_.interval);
    if (!running_ || generation_ != my_generation) co_return;
    if (process_.terminated().fired()) co_return;
    // Skip samples that land while the process is stopped by a tool --
    // a real profiling signal would not be delivered to a SIGSTOPed task.
    if (process_.suspended()) continue;

    // The "signal handler": steal per_sample_cost from the whole process
    // (all threads briefly stop, as with a process-wide profiling signal).
    if (options_.per_sample_cost > 0) {
      process_.suspend();
      co_await engine.sleep(options_.per_sample_cost);
      process_.resume();
    }
    for (const auto& thread : process_.threads()) {
      samples_.add(static_cast<std::int64_t>(thread->current_function()));
    }
  }
}

std::unordered_map<image::FunctionId, std::uint64_t> Sampler::histogram() const {
  std::unordered_map<image::FunctionId, std::uint64_t> out;
  for (const auto& [key, hits] : samples_.snapshot()) {
    out.emplace(static_cast<image::FunctionId>(key), hits);
  }
  return out;
}

}  // namespace dyntrace::sampling
