#include "proc/job.hpp"

#include <gtest/gtest.h>

namespace dyntrace::proc {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main");
  return table;
}

TEST(Job, RunsAllProcessesAndFiresAllDone) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  ParallelJob job(cluster, "test-app");
  for (int pid = 0; pid < 4; ++pid) {
    job.add_process(image::ProgramImage(make_symbols()), pid / 8, pid % 8);
    job.set_main(pid, [pid](SimThread& t) -> sim::Coro<void> {
      co_await t.compute(sim::milliseconds(pid + 1));
    });
  }
  job.start();
  engine.run();
  EXPECT_TRUE(job.all_done().fired());
  EXPECT_EQ(job.finish_time(), sim::milliseconds(4));
  EXPECT_EQ(job.size(), 4u);
}

TEST(Job, ProcessesAreSuspendableBeforeStart) {
  // The POE/dynprof model: the job exists but nothing runs until start().
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  ParallelJob job(cluster, "suspended");
  job.add_process(image::ProgramImage(make_symbols()), 0, 0);
  bool ran = false;
  job.set_main(0, [&ran](SimThread&) -> sim::Coro<void> {
    ran = true;
    co_return;
  });
  // The image can be patched before start (dynprof's pre-start insert).
  job.process(0).image().install_probe(0, image::ProbeWhere::kEntry, image::snippet::noop());
  engine.run();  // no events: job not started
  EXPECT_FALSE(ran);
  job.start();
  engine.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(job.process(0).image().probe_point(0, image::ProbeWhere::kEntry).minis.size(), 1u);
}

TEST(Job, StartWithoutMainThrows) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  ParallelJob job(cluster, "incomplete");
  job.add_process(image::ProgramImage(make_symbols()), 0, 0);
  EXPECT_THROW(job.start(), Error);
}

TEST(Job, EmptyJobThrowsOnStart) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  ParallelJob job(cluster, "empty");
  EXPECT_THROW(job.start(), Error);
}

TEST(Job, PidsAreInsertionOrder) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  ParallelJob job(cluster, "pids");
  for (int i = 0; i < 3; ++i) {
    SimProcess& p = job.add_process(image::ProgramImage(make_symbols()), 0, i);
    EXPECT_EQ(p.pid(), i);
  }
  EXPECT_EQ(job.process(2).pid(), 2);
}

}  // namespace
}  // namespace dyntrace::proc
