// Fault tolerance of the DPCL daemon layer: exited targets fail the ack
// instead of leaking it (satellite 1), retried requests dedup on their id
// (exactly-once execution), and a dead daemon gets its node abandoned --
// marked Lost and reported -- instead of hanging the tool forever.
#include <gtest/gtest.h>

#include "dpcl/application.hpp"
#include "fault/injector.hpp"
#include "image/snippet.hpp"
#include "proc/job.hpp"

namespace dyntrace::dpcl {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main");
  table->add("target_fn");
  return table;
}

TEST(DpclFaults, ExitedTargetFailsTheAck) {
  // Satellite 1: a request whose target exited before dispatch must resolve
  // the AckState with a per-process failure, not hang or patch a corpse.
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  // Every request kind fails against an exited target (an installed plan
  // changes nothing about that).
  fault::FaultInjector injector(fault::FaultPlan::parse("seed 1\n"));
  cluster.set_fault_injector(injector);
  proc::ParallelJob job(cluster, "target");
  for (int pid = 0; pid < 2; ++pid) {
    job.add_process(image::ProgramImage(make_symbols()), 0, pid);
  }
  job.set_main(0, [](proc::SimThread& t) -> sim::Coro<void> {
    co_await t.compute(sim::seconds(60));
  });
  job.set_main(1, [](proc::SimThread& t) -> sim::Coro<void> {
    co_await t.compute(sim::seconds(1));  // exits long before the request
  });
  CommDaemon daemon(cluster, job, 0);
  daemon.start();
  job.start();

  auto ack = std::make_shared<AckState>(engine, 1);
  engine.spawn(
      [](sim::Engine& eng, CommDaemon& d, std::shared_ptr<AckState> a) -> sim::Coro<void> {
        co_await eng.sleep(sim::seconds(5));
        Request request;
        request.kind = Request::Kind::kInstall;
        request.pids = {0, 1};
        request.fn = 1;
        request.snippet = image::snippet::noop();
        request.ack = a;
        request.reply_node = 0;
        d.inbox().put(std::move(request));
        co_await a->done.wait();
      }(engine, daemon, ack),
      "driver");
  engine.run();

  EXPECT_EQ(ack->remaining, 0);
  EXPECT_EQ(ack->failed, 1);  // pid 1 was gone
  EXPECT_EQ(job.process(0).image().probe_point(1, image::ProbeWhere::kEntry).minis.size(), 1u);
  EXPECT_EQ(job.process(1).image().probe_point(1, image::ProbeWhere::kEntry).minis.size(), 0u);
}

TEST(DpclFaults, RetriedRequestIdIsExecutedOnce) {
  // At-least-once delivery + the dedup table = exactly-once execution: the
  // second copy of request id 7 is re-acked from the table, not re-run.
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  proc::ParallelJob job(cluster, "target");
  job.add_process(image::ProgramImage(make_symbols()), 0, 0);
  job.set_main(0, [](proc::SimThread& t) -> sim::Coro<void> {
    co_await t.compute(sim::seconds(60));
  });
  CommDaemon daemon(cluster, job, 0);
  daemon.start();
  job.start();

  auto first = std::make_shared<AckState>(engine, 1);
  auto retry = std::make_shared<AckState>(engine, 1);
  engine.spawn(
      [](CommDaemon& d, std::shared_ptr<AckState> a,
         std::shared_ptr<AckState> b) -> sim::Coro<void> {
        Request request;
        request.kind = Request::Kind::kInstall;
        request.pids = {0};
        request.fn = 1;
        request.snippet = image::snippet::noop();
        request.request_id = 7;
        request.reply_node = 0;
        Request copy = request;
        request.ack = a;
        d.inbox().put(std::move(request));
        co_await a->done.wait();
        copy.ack = b;
        d.inbox().put(std::move(copy));
        co_await b->done.wait();
      }(daemon, first, retry),
      "driver");
  engine.run();

  EXPECT_EQ(first->remaining, 0);
  EXPECT_EQ(retry->remaining, 0);  // the duplicate was still acknowledged
  // Executed once: one entry probe, and the handled counter moved once per
  // message but the image was patched a single time.
  EXPECT_EQ(job.process(0).image().probe_point(1, image::ProbeWhere::kEntry).minis.size(), 1u);
}

TEST(DpclFaults, DeadDaemonNodeIsAbandonedNotHungOn) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());

  fault::FaultInjector injector(
      fault::FaultPlan::parse("kill-daemon node=1 at=2s\n"));
  cluster.set_fault_injector(injector);

  proc::ParallelJob job(cluster, "target");
  for (int pid = 0; pid < 4; ++pid) {
    job.add_process(image::ProgramImage(make_symbols()), pid / 2, pid % 2);
    job.set_main(pid, [](proc::SimThread& t) -> sim::Coro<void> {
      co_await t.compute(sim::seconds(600));
    });
  }
  auto tool_symbols = std::make_shared<image::SymbolTable>();
  tool_symbols->add("tool");
  proc::SimProcess tool(cluster, 999, 2, 0, image::ProgramImage(tool_symbols));
  std::vector<std::unique_ptr<SuperDaemon>> supers;
  std::vector<SuperDaemon*> ptrs;
  for (int node = 0; node < cluster.spec().nodes; ++node) {
    supers.push_back(std::make_unique<SuperDaemon>(cluster, node));
    supers.back()->start();
    ptrs.push_back(supers.back().get());
  }
  DpclApplication app(cluster, job, 2, std::move(ptrs));
  job.start();

  bool returned = false;
  engine.spawn(
      [](proc::SimThread& t, DpclApplication& a, sim::Engine& eng,
         bool& done) -> sim::Coro<void> {
        co_await a.connect(t);
        // Past the daemon's death time; the install must return (abandoning
        // node 1) instead of waiting for an ack that can never come.
        co_await eng.sleep(sim::seconds(5));
        co_await a.install_probe(t, 1, image::ProbeWhere::kEntry, image::snippet::noop(),
                                 /*activate=*/true, /*blocking=*/true);
        done = true;
      }(tool.main_thread(), app, engine, returned),
      "tool");
  engine.run();

  EXPECT_TRUE(returned);
  EXPECT_EQ(app.lost_nodes(), std::set<int>{1});
  EXPECT_EQ(app.lost_pids(), (std::vector<int>{2, 3}));
  EXPECT_TRUE(job.process(2).lost());
  EXPECT_TRUE(job.process(3).lost());
  EXPECT_FALSE(job.process(0).lost());
  // Node 0 was still served.
  EXPECT_EQ(job.process(0).image().probe_point(1, image::ProbeWhere::kEntry).minis.size(), 1u);
  EXPECT_EQ(job.process(2).image().probe_point(1, image::ProbeWhere::kEntry).minis.size(), 0u);
  // The loss is reported with the affected ranks, after the breaker opened.
  const auto entries = injector.report().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].kind, "breaker-open");
  EXPECT_EQ(entries[1].kind, "daemon-lost");
  EXPECT_EQ(entries[1].ranks, (std::vector<int>{2, 3}));
  EXPECT_EQ(injector.report().lost_ranks(), (std::vector<int>{2, 3}));
}

}  // namespace
}  // namespace dyntrace::dpcl
