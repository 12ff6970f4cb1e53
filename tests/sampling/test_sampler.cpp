#include "sampling/sampler.hpp"

#include <gtest/gtest.h>

namespace dyntrace::sampling {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main");
  table->add("hot");
  table->add("cold");
  return table;
}

struct Fixture {
  Fixture() : cluster(engine, machine::ibm_power3_sp()),
              process(cluster, 0, 0, 0, image::ProgramImage(make_symbols())) {}

  /// Workload: 90% of time in "hot" (fn 1), 10% in "cold" (fn 2).
  void spawn_workload(sim::TimeNs total) {
    engine.spawn(
        [](Fixture& f, sim::TimeNs budget) -> sim::Coro<void> {
          proc::SimThread& t = f.process.main_thread();
          const sim::TimeNs slice = budget / 10;
          for (int i = 0; i < 10; ++i) {
            co_await t.call_function(1, [&](proc::SimThread& t2) -> sim::Coro<void> {
              co_await t2.compute(slice * 9 / 10);
            });
            co_await t.call_function(2, [&](proc::SimThread& t2) -> sim::Coro<void> {
              co_await t2.compute(slice / 10);
            });
          }
          f.workload_done = f.engine.now();
          f.process.mark_terminated();
        }(*this, total),
        "workload");
  }

  sim::Engine engine;
  machine::Cluster cluster;
  proc::SimProcess process;
  sim::TimeNs workload_done = -1;  ///< wall time of the perturbed workload
};

TEST(Sampler, HistogramReflectsTimeDistribution) {
  Fixture f;
  f.spawn_workload(sim::seconds(10));
  Sampler sampler(f.process, {.interval = sim::milliseconds(5), .per_sample_cost = 0});
  sampler.start();
  f.engine.run();
  ASSERT_GT(sampler.total_samples(), 1000u);
  const auto& h = sampler.histogram();
  const double hot = static_cast<double>(h.count(1) ? h.at(1) : 0);
  const double cold = static_cast<double>(h.count(2) ? h.at(2) : 0);
  // hot gets ~9x the samples of cold.
  EXPECT_GT(hot, 5 * cold);
}

TEST(Sampler, OverheadScalesWithRate) {
  // §2: "the smaller the sampling interval, the higher the ... overhead."
  auto run_time = [](sim::TimeNs interval) {
    Fixture f;
    f.spawn_workload(sim::seconds(5));
    Sampler sampler(f.process, {.interval = interval,
                                .per_sample_cost = sim::microseconds(100)});
    sampler.start();
    f.engine.run();
    return f.workload_done;  // engine.now() would include the last idle timer
  };
  const auto baseline = run_time(sim::seconds(100));  // effectively no samples
  const auto coarse = run_time(sim::milliseconds(10));
  const auto fine = run_time(sim::milliseconds(1));
  EXPECT_GT(coarse, baseline);
  EXPECT_GT(fine, coarse);
  // 10x the rate => ~10x the added overhead.
  const double added_fine = static_cast<double>(fine - baseline);
  const double added_coarse = static_cast<double>(coarse - baseline);
  EXPECT_NEAR(added_fine / added_coarse, 10.0, 2.0);
}

TEST(Sampler, ZeroCostSamplingDoesNotPerturb) {
  Fixture f;
  f.spawn_workload(sim::seconds(5));
  f.engine.run();
  const auto undisturbed = f.workload_done;

  Fixture g;
  g.spawn_workload(sim::seconds(5));
  Sampler sampler(g.process, {.interval = sim::milliseconds(1), .per_sample_cost = 0});
  sampler.start();
  g.engine.run();
  EXPECT_EQ(g.workload_done, undisturbed);
}

TEST(Sampler, StopHaltsSampling) {
  Fixture f;
  f.spawn_workload(sim::seconds(10));
  Sampler sampler(f.process, {.interval = sim::milliseconds(5), .per_sample_cost = 0});
  sampler.start();
  f.engine.schedule_at(sim::seconds(1), [&] { sampler.stop(); });
  f.engine.run();
  // ~200 samples in the first second, then nothing.
  EXPECT_LT(sampler.total_samples(), 250u);
  EXPECT_GT(sampler.total_samples(), 150u);
  EXPECT_FALSE(sampler.running());
}

TEST(Sampler, RestartAccumulatesIntoSameHistogram) {
  Fixture f;
  f.spawn_workload(sim::seconds(10));
  Sampler sampler(f.process, {.interval = sim::milliseconds(5), .per_sample_cost = 0});
  sampler.start();
  f.engine.schedule_at(sim::seconds(1), [&] { sampler.stop(); });
  f.engine.schedule_at(sim::seconds(8), [&] { sampler.start(); });
  f.engine.run();
  EXPECT_GT(sampler.total_samples(), 300u);
}

TEST(Sampler, IdleThreadSamplesAsOutsideAnyFunction) {
  Fixture f;
  // No workload: thread never enters a function; process never terminates,
  // so bound the run.
  Sampler sampler(f.process, {.interval = sim::milliseconds(10), .per_sample_cost = 0});
  sampler.start();
  f.engine.run(sim::seconds(1));
  const auto& h = sampler.histogram();
  ASSERT_TRUE(h.count(image::kInvalidFunction));
  EXPECT_EQ(h.size(), 1u);
}

TEST(Sampler, SuspendedProcessIsNotSampled) {
  Fixture f;
  f.spawn_workload(sim::seconds(4));
  Sampler sampler(f.process, {.interval = sim::milliseconds(5), .per_sample_cost = 0});
  sampler.start();
  // Suspend [1s, 3s): two of four seconds -- roughly half the samples.
  f.engine.schedule_at(sim::seconds(1), [&] { f.process.suspend(); });
  f.engine.schedule_at(sim::seconds(3), [&] { f.process.resume(); });
  f.engine.run();
  // Workload runs 4s of work + 2s suspended = 6s wall; samples only in the
  // ~4s of running time.
  EXPECT_LT(sampler.total_samples(), 4 * 220u);
  EXPECT_GT(sampler.total_samples(), 4 * 150u / 2);
}

TEST(Sampler, InvalidOptionsRejected) {
  Fixture f;
  EXPECT_THROW(Sampler(f.process, {.interval = 0, .per_sample_cost = 0}), Error);
}

}  // namespace
}  // namespace dyntrace::sampling
