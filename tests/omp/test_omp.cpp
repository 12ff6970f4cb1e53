#include "omp/runtime.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dyntrace::omp {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main");
  return table;
}

struct Fixture {
  explicit Fixture(int threads)
      : cluster(engine, machine::ibm_power3_sp()),
        process(cluster, 0, 0, 0, image::ProgramImage(make_symbols())),
        runtime(process, threads) {}

  void run(OmpRuntime::RegionFn region) {
    engine.spawn(
        [](OmpRuntime& rt, proc::SimThread& master,
           OmpRuntime::RegionFn fn) -> sim::Coro<void> {
          co_await rt.parallel(master, std::move(fn));
        }(runtime, process.main_thread(), std::move(region)),
        "omp-master");
    engine.run();
  }

  sim::Engine engine;
  machine::Cluster cluster;
  proc::SimProcess process;
  OmpRuntime runtime;
};

TEST(Omp, TeamCreationPinsCpus) {
  Fixture f(4);
  EXPECT_EQ(f.runtime.num_threads(), 4);
  EXPECT_EQ(f.process.threads().size(), 4u);
  EXPECT_EQ(f.process.threads()[2]->cpu(), 2);
}

TEST(Omp, TeamLargerThanNodeRejected) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());  // 8 cpus/node
  proc::SimProcess process(cluster, 0, 0, 0, image::ProgramImage(make_symbols()));
  EXPECT_THROW(OmpRuntime(process, 9), Error);
}

TEST(Omp, ParallelRunsBodyOnEveryThread) {
  Fixture f(4);
  std::set<int> seen;
  f.run([&seen](proc::SimThread&, int tnum, int nthreads) -> sim::Coro<void> {
    EXPECT_EQ(nthreads, 4);
    seen.insert(tnum);
    co_return;
  });
  EXPECT_EQ(seen, (std::set<int>{0, 1, 2, 3}));
  EXPECT_EQ(f.runtime.regions_executed(), 1);
}

TEST(Omp, ParallelJoinsAtEnd) {
  Fixture f(3);
  sim::TimeNs joined = -1;
  f.engine.spawn(
      [](Fixture& fx, sim::TimeNs& out) -> sim::Coro<void> {
        co_await fx.runtime.parallel(
            fx.process.main_thread(),
            [](proc::SimThread& t, int tnum, int) -> sim::Coro<void> {
              co_await t.compute(sim::milliseconds(10 * (tnum + 1)));
            });
        out = fx.engine.now();
      }(f, joined),
      "master");
  f.engine.run();
  // Join waits for the slowest member (30ms) plus fork overhead.
  EXPECT_GE(joined, sim::milliseconds(30));
  EXPECT_LT(joined, sim::milliseconds(31));
}

TEST(Omp, SingleThreadTeamWorks) {
  Fixture f(1);
  int runs = 0;
  f.run([&runs](proc::SimThread&, int tnum, int nthreads) -> sim::Coro<void> {
    EXPECT_EQ(tnum, 0);
    EXPECT_EQ(nthreads, 1);
    ++runs;
    co_return;
  });
  EXPECT_EQ(runs, 1);
}

class StaticScheduleSizes : public ::testing::TestWithParam<int> {};

TEST_P(StaticScheduleSizes, StaticScheduleCoversAllIterationsExactlyOnce) {
  const int threads = GetParam();
  Fixture f(threads);
  std::vector<int> hits(100, 0);
  f.run([&f, &hits](proc::SimThread& t, int tnum, int) -> sim::Coro<void> {
    co_await f.runtime.for_each(t, tnum, 100, Schedule::kStatic, 0,
                                [&hits](proc::SimThread&, std::int64_t i) -> sim::Coro<void> {
                                  ++hits[static_cast<std::size_t>(i)];
                                  co_return;
                                });
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[i], 1) << "iteration " << i;
}

INSTANTIATE_TEST_SUITE_P(Threads, StaticScheduleSizes, ::testing::Values(1, 2, 3, 7, 8));

class DynamicScheduleSizes : public ::testing::TestWithParam<int> {};

TEST_P(DynamicScheduleSizes, DynamicScheduleCoversAllIterationsExactlyOnce) {
  const int threads = GetParam();
  Fixture f(threads);
  std::vector<int> hits(97, 0);
  f.run([&f, &hits](proc::SimThread& t, int tnum, int) -> sim::Coro<void> {
    co_await f.runtime.for_each(t, tnum, 97, Schedule::kDynamic, 3,
                                [&hits](proc::SimThread&, std::int64_t i) -> sim::Coro<void> {
                                  ++hits[static_cast<std::size_t>(i)];
                                  co_return;
                                });
  });
  for (int i = 0; i < 97; ++i) EXPECT_EQ(hits[i], 1) << "iteration " << i;
}

INSTANTIATE_TEST_SUITE_P(Threads, DynamicScheduleSizes, ::testing::Values(1, 2, 4, 8));

TEST(Omp, GuidedScheduleCoversAllIterations) {
  Fixture f(4);
  std::vector<int> hits(200, 0);
  f.run([&f, &hits](proc::SimThread& t, int tnum, int) -> sim::Coro<void> {
    co_await f.runtime.for_each(t, tnum, 200, Schedule::kGuided, 2,
                                [&hits](proc::SimThread&, std::int64_t i) -> sim::Coro<void> {
                                  ++hits[static_cast<std::size_t>(i)];
                                  co_return;
                                });
  });
  for (int i = 0; i < 200; ++i) EXPECT_EQ(hits[i], 1);
}

TEST(Omp, DynamicScheduleBalancesUnevenWork) {
  // With per-iteration work proportional to the index, dynamic scheduling
  // must beat static block scheduling (which gives the last thread the
  // heaviest block).
  auto elapsed = [](Schedule schedule) {
    Fixture f(4);
    f.run([&f, schedule](proc::SimThread& t, int tnum, int) -> sim::Coro<void> {
      co_await f.runtime.for_each(
          t, tnum, 64, schedule, 1,
          [](proc::SimThread& th, std::int64_t i) -> sim::Coro<void> {
            co_await th.compute(sim::microseconds(100.0 * static_cast<double>(i)));
          });
    });
    return f.engine.now();
  };
  EXPECT_LT(elapsed(Schedule::kDynamic), elapsed(Schedule::kStatic));
}

TEST(Omp, ConsecutiveLoopsInOneRegion) {
  Fixture f(3);
  int total = 0;
  f.run([&f, &total](proc::SimThread& t, int tnum, int) -> sim::Coro<void> {
    for (int loop = 0; loop < 5; ++loop) {
      co_await f.runtime.for_each(t, tnum, 30, Schedule::kDynamic, 2,
                                  [&total](proc::SimThread&, std::int64_t) -> sim::Coro<void> {
                                    ++total;
                                    co_return;
                                  });
    }
  });
  EXPECT_EQ(total, 150);
}

TEST(Omp, ListenerSeesRegionAndWorkerEvents) {
  struct Recorder final : OmpListener {
    int par_begin = 0, par_end = 0, worker_begin = 0, worker_end = 0;
    sim::Coro<void> on_parallel_begin(proc::SimThread&, int, int) override {
      ++par_begin;
      co_return;
    }
    sim::Coro<void> on_parallel_end(proc::SimThread&, int) override {
      ++par_end;
      co_return;
    }
    sim::Coro<void> on_worker_begin(proc::SimThread&, int) override {
      ++worker_begin;
      co_return;
    }
    sim::Coro<void> on_worker_end(proc::SimThread&, int) override {
      ++worker_end;
      co_return;
    }
  };
  Fixture f(4);
  Recorder recorder;
  f.runtime.set_listener(&recorder);
  f.run([](proc::SimThread&, int, int) -> sim::Coro<void> { co_return; });
  EXPECT_EQ(recorder.par_begin, 1);
  EXPECT_EQ(recorder.par_end, 1);
  EXPECT_EQ(recorder.worker_begin, 3);  // workers only; master is the region
  EXPECT_EQ(recorder.worker_end, 3);
}

TEST(Omp, NestedParallelRejected) {
  Fixture f(2);
  f.engine.spawn(
      [](Fixture& fx) -> sim::Coro<void> {
        co_await fx.runtime.parallel(
            fx.process.main_thread(),
            [&fx](proc::SimThread& t, int tnum, int) -> sim::Coro<void> {
              if (tnum == 0) {
                co_await fx.runtime.parallel(
                    t, [](proc::SimThread&, int, int) -> sim::Coro<void> { co_return; });
              }
            });
      }(f),
      "master");
  EXPECT_THROW(f.engine.run(), Error);
}

}  // namespace
}  // namespace dyntrace::omp
