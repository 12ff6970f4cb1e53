#include <gtest/gtest.h>

#include "dpcl/application.hpp"
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

/// 2 nodes x 2 processes + a tool process on node 2.
struct DpclHarness {
  DpclHarness() : cluster(engine, machine::ibm_power3_sp()), job(cluster, "target") {
    for (int pid = 0; pid < 4; ++pid) {
      job.add_process(image::ProgramImage(make_symbols()), pid / 2, pid % 2);
      job.set_main(pid, [](proc::SimThread& t) -> sim::Coro<void> {
        co_await t.compute(sim::seconds(60));
      });
    }
    auto tool_symbols = std::make_shared<image::SymbolTable>();
    tool_symbols->add("tool");
    tool = std::make_unique<proc::SimProcess>(cluster, 999, 2, 0,
                                              image::ProgramImage(tool_symbols));
    for (int node = 0; node < cluster.spec().nodes; ++node) {
      supers.push_back(std::make_unique<SuperDaemon>(cluster, node));
    }
    std::vector<SuperDaemon*> ptrs;
    for (auto& s : supers) {
      s->start();
      ptrs.push_back(s.get());
    }
    app = std::make_unique<DpclApplication>(cluster, job, 2, std::move(ptrs));
  }

  void run_tool(std::function<sim::Coro<void>(proc::SimThread&)> body) {
    engine.spawn(
        [](proc::SimThread& t,
           std::function<sim::Coro<void>(proc::SimThread&)> fn) -> sim::Coro<void> {
          co_await fn(t);
        }(tool->main_thread(), std::move(body)),
        "tool");
    engine.run();
  }

  sim::Engine engine;
  machine::Cluster cluster;
  proc::ParallelJob job;
  std::unique_ptr<proc::SimProcess> tool;
  std::vector<std::unique_ptr<SuperDaemon>> supers;
  std::unique_ptr<DpclApplication> app;
};

TEST(Dpcl, TargetNodesAreGrouped) {
  DpclHarness h;
  EXPECT_EQ(h.app->target_nodes(), (std::vector<int>{0, 1}));
}

TEST(Dpcl, ConnectTakesPerProcessTime) {
  DpclHarness h;
  h.run_tool([&h](proc::SimThread& t) -> sim::Coro<void> { co_await h.app->connect(t); });
  EXPECT_TRUE(h.app->connected());
  // 2 processes per node handled serially by that node's daemon: at least
  // 2 x (connect + parse).
  const auto& costs = h.cluster.spec().costs;
  EXPECT_GE(h.engine.now(), 2 * (costs.dpcl_connect + costs.dpcl_parse_image));
}

TEST(Dpcl, OperationsBeforeConnectThrow) {
  DpclHarness h;
  EXPECT_THROW(h.run_tool([&h](proc::SimThread& t) -> sim::Coro<void> {
                 co_await h.app->suspend_all(t, true);
               }),
               Error);
}

TEST(Dpcl, InstallProbePatchesEveryProcessImage) {
  DpclHarness h;
  h.run_tool([&h](proc::SimThread& t) -> sim::Coro<void> {
    std::vector<std::int64_t> arg(1, 1);
    co_await h.app->connect(t);
    co_await h.app->install_probe(t, 1, image::ProbeWhere::kEntry,
                                  image::snippet::call("VT_begin", arg),
                                  /*activate=*/true, /*blocking=*/true);
  });
  for (const auto& process : h.job.processes()) {
    EXPECT_TRUE(process->image().probe_point(1, image::ProbeWhere::kEntry).has_base_trampoline());
    EXPECT_EQ(process->image().installed_probe_count(), 1u);
  }
}

TEST(Dpcl, NonBlockingInstallArrivesWithDifferingDelays) {
  // The asynchrony the paper's Figure 6 protocol exists to handle: a
  // non-blocking broadcast is NOT atomic across nodes.
  DpclHarness h;
  h.run_tool([&h](proc::SimThread& t) -> sim::Coro<void> {
    co_await h.app->connect(t);
    const sim::TimeNs before = h.engine.now();
    co_await h.app->install_probe(t, 1, image::ProbeWhere::kEntry, image::snippet::noop(),
                                  true, /*blocking=*/false);
    // Returned immediately: no patch has landed yet.
    EXPECT_LT(h.engine.now() - before, sim::milliseconds(1));
    EXPECT_EQ(h.job.process(0).image().installed_probe_count(), 0u);
  });
  // After the engine drains, all processes are patched.
  for (const auto& process : h.job.processes()) {
    EXPECT_EQ(process->image().installed_probe_count(), 1u);
  }
}

TEST(Dpcl, SuspendAndResumeAllProcesses) {
  DpclHarness h;
  h.run_tool([&h](proc::SimThread& t) -> sim::Coro<void> {
    co_await h.app->connect(t);
    co_await h.app->suspend_all(t, /*blocking=*/true);
    for (const auto& process : h.job.processes()) {
      EXPECT_TRUE(process->suspended());
    }
    co_await h.app->resume_all(t, /*blocking=*/true);
    for (const auto& process : h.job.processes()) {
      EXPECT_FALSE(process->suspended());
    }
  });
}

TEST(Dpcl, RemoveFunctionProbesClearsBothEnds) {
  DpclHarness h;
  h.run_tool([&h](proc::SimThread& t) -> sim::Coro<void> {
    co_await h.app->connect(t);
    co_await h.app->install_probe(t, 1, image::ProbeWhere::kEntry, image::snippet::noop(),
                                  true, true);
    co_await h.app->install_probe(t, 1, image::ProbeWhere::kExit, image::snippet::noop(),
                                  true, true);
    co_await h.app->remove_function_probes(t, 1, /*blocking=*/true);
  });
  for (const auto& process : h.job.processes()) {
    EXPECT_EQ(process->image().installed_probe_count(), 0u);
  }
}

TEST(Dpcl, ActivateDeactivateWithoutRemoval) {
  DpclHarness h;
  h.run_tool([&h](proc::SimThread& t) -> sim::Coro<void> {
    co_await h.app->connect(t);
    co_await h.app->install_probe(t, 1, image::ProbeWhere::kEntry, image::snippet::noop(),
                                  true, true);
    co_await h.app->set_function_probes_active(t, 1, false, /*blocking=*/true);
  });
  for (const auto& process : h.job.processes()) {
    EXPECT_EQ(process->image().installed_probe_count(), 1u);
    EXPECT_EQ(process->image().active_probe_count(), 0u);
  }
}

TEST(Dpcl, CallbacksTravelFromProcessToTool) {
  DpclHarness h;
  h.run_tool([&h](proc::SimThread& t) -> sim::Coro<void> {
    co_await h.app->connect(t);
    // A process-side snippet sends a callback.
    const sim::TimeNs sent_at = h.engine.now();
    h.job.process(3).send_callback("test-tag");
    const Callback cb = co_await h.app->callbacks().recv();
    EXPECT_EQ(cb.tag, "test-tag");
    EXPECT_EQ(cb.pid, 3);
    EXPECT_GT(h.engine.now(), sent_at);  // network + daemon delay
  });
}

TEST(Dpcl, RequestBytesGrowWithSnippetSize) {
  Request small;
  small.kind = Request::Kind::kInstall;
  small.snippet = image::snippet::call("f");
  Request big = small;
  big.snippet = image::snippet::seq({image::snippet::call("a"), image::snippet::call("b"),
                                     image::snippet::callback("c")});
  EXPECT_LT(request_bytes(small), request_bytes(big));
}

TEST(Dpcl, SuperDaemonServesMultipleConnections) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  SuperDaemon sd(cluster, 0);
  sd.start();
  auto ack = std::make_shared<AckState>(engine, 2);
  for (const int slot : {0, 1}) {
    Request connect;
    connect.kind = Request::Kind::kConnect;
    connect.ack = ack;
    connect.ack_slot = slot;
    sd.inbox().put(std::move(connect));
  }
  engine.spawn(
      [](std::shared_ptr<AckState> a) -> sim::Coro<void> { co_await a->done.wait(); }(ack),
      "waiter");
  engine.run();
  EXPECT_EQ(sd.connections_served(), 2u);
}


TEST(Dpcl, ExecuteSnippetRunsOncePerProcess) {
  DpclHarness h;
  h.run_tool([&h](proc::SimThread& t) -> sim::Coro<void> {
    co_await h.app->connect(t);
    // One-shot inferior RPC: set a flag in every process, no probe left.
    co_await h.app->execute_snippet(t, image::snippet::set_flag("poked", 7),
                                    /*blocking=*/true);
  });
  for (const auto& process : h.job.processes()) {
    EXPECT_EQ(process->flag("poked"), 7);
    EXPECT_EQ(process->image().installed_probe_count(), 0u);
  }
}

TEST(Dpcl, ExecuteSnippetCanCallLibraryFunctions) {
  DpclHarness h;
  int calls = 0;
  for (const auto& process : h.job.processes()) {
    process->registry().register_function(
        "diag_dump",
        [&calls](proc::SimThread&, proc::LibraryRegistry::Args) -> sim::Coro<void> {
          ++calls;
          co_return;
        });
  }
  h.run_tool([&h](proc::SimThread& t) -> sim::Coro<void> {
    co_await h.app->connect(t);
    co_await h.app->execute_snippet(t, image::snippet::call("diag_dump"), true);
  });
  EXPECT_EQ(calls, 4);
}

}  // namespace
}  // namespace dyntrace::dpcl
