#include "proc/process.hpp"

#include <gtest/gtest.h>

#include "image/snippet.hpp"
#include "omp/runtime.hpp"
#include "proc/job.hpp"

namespace dyntrace::proc {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main");
  table->add("work");
  return table;
}

struct Fixture {
  sim::Engine engine;
  machine::Cluster cluster{engine, machine::ibm_power3_sp()};
  SimProcess process{cluster, 0, 0, 0, image::ProgramImage(make_symbols())};
};

TEST(Process, ComputeAdvancesVirtualTime) {
  Fixture f;
  f.engine.spawn(
      [](SimThread& t) -> sim::Coro<void> { co_await t.compute(sim::milliseconds(3)); }(
          f.process.main_thread()),
      "p");
  f.engine.run();
  EXPECT_EQ(f.engine.now(), sim::milliseconds(3));
}

TEST(Process, SuspendFreezesComputeMidway) {
  Fixture f;
  sim::TimeNs done_at = -1;
  f.engine.spawn(
      [](SimThread& t, sim::TimeNs& out) -> sim::Coro<void> {
        co_await t.compute(sim::milliseconds(10));
        out = t.engine().now();
      }(f.process.main_thread(), done_at),
      "worker");
  // Suspend at t=4ms for 6ms: completion slips from 10ms to 16ms.
  f.engine.schedule_at(sim::milliseconds(4), [&] { f.process.suspend(); });
  f.engine.schedule_at(sim::milliseconds(10), [&] { f.process.resume(); });
  f.engine.run();
  EXPECT_EQ(done_at, sim::milliseconds(16));
  EXPECT_EQ(f.process.suspend_count(), 1u);
}

TEST(Process, DoubleSuspendAndResumeAreIdempotent) {
  Fixture f;
  sim::TimeNs done_at = -1;
  f.engine.spawn(
      [](SimThread& t, sim::TimeNs& out) -> sim::Coro<void> {
        co_await t.compute(sim::milliseconds(10));
        out = t.engine().now();
      }(f.process.main_thread(), done_at),
      "worker");
  f.engine.schedule_at(sim::milliseconds(2), [&] { f.process.suspend(); });
  f.engine.schedule_at(sim::milliseconds(3), [&] { f.process.suspend(); });
  f.engine.schedule_at(sim::milliseconds(5), [&] { f.process.resume(); });
  f.engine.schedule_at(sim::milliseconds(6), [&] { f.process.resume(); });
  f.engine.run();
  EXPECT_EQ(done_at, sim::milliseconds(13));
}

TEST(Process, ZeroWorkComputeStartedWhileSuspendedWaitsForResume) {
  Fixture f;
  f.process.suspend();
  sim::TimeNs done_at = -1;
  f.engine.spawn(
      [](SimThread& t, sim::TimeNs& out) -> sim::Coro<void> {
        co_await t.compute(0);
        out = t.engine().now();
      }(f.process.main_thread(), done_at),
      "worker");
  f.engine.schedule_at(sim::milliseconds(7), [&] { f.process.resume(); });
  f.engine.run();
  EXPECT_EQ(done_at, sim::milliseconds(7));
}

TEST(Process, ComputeStartedWhileSuspendedRunsAfterResume) {
  Fixture f;
  f.process.suspend();
  sim::TimeNs done_at = -1;
  f.engine.spawn(
      [](SimThread& t, sim::TimeNs& out) -> sim::Coro<void> {
        co_await t.compute(sim::milliseconds(3));
        out = t.engine().now();
      }(f.process.main_thread(), done_at),
      "worker");
  f.engine.schedule_at(sim::milliseconds(5), [&] { f.process.resume(); });
  f.engine.run();
  EXPECT_EQ(done_at, sim::milliseconds(8));
}

TEST(Process, SuspendBeforeTheContinuationRunsKeepsTheRemainingWork) {
  Fixture f;
  sim::TimeNs done_at = -1;
  f.engine.spawn(
      [](SimThread& t, sim::TimeNs& out) -> sim::Coro<void> {
        co_await t.compute(sim::milliseconds(10));
        out = t.engine().now();
      }(f.process.main_thread(), done_at),
      "worker");
  // 4 ms done at the first suspend.  The resume at 6 ms posts the rest,
  // but the suspend queued behind it lands before that continuation runs,
  // so the remaining 6 ms start only at the resume at 9 ms.
  f.engine.schedule_at(sim::milliseconds(4), [&] { f.process.suspend(); });
  f.engine.schedule_at(sim::milliseconds(6), [&] { f.process.resume(); });
  f.engine.schedule_at(sim::milliseconds(6), [&] { f.process.suspend(); });
  f.engine.schedule_at(sim::milliseconds(9), [&] { f.process.resume(); });
  f.engine.run();
  EXPECT_EQ(done_at, sim::milliseconds(15));
  EXPECT_EQ(f.process.suspend_count(), 2u);
}

TEST(Process, SuspendAtTheTimerInstantLeavesNoWork) {
  Fixture f;
  sim::TimeNs done_at = -1;
  // Scheduled before the timer, so it pops first at 4 ms and cancels it
  // with all the work done; the compute completes at the resume.
  f.engine.schedule_at(sim::milliseconds(4), [&] { f.process.suspend(); });
  f.engine.schedule_at(sim::milliseconds(6), [&] { f.process.resume(); });
  f.engine.spawn(
      [](SimThread& t, sim::TimeNs& out) -> sim::Coro<void> {
        co_await t.compute(sim::milliseconds(4));
        out = t.engine().now();
      }(f.process.main_thread(), done_at),
      "worker");
  f.engine.run();
  EXPECT_EQ(done_at, sim::milliseconds(6));
}

TEST(Process, GateParksWhileSuspended) {
  Fixture f;
  f.process.suspend();
  bool passed = false;
  f.engine.spawn(
      [](SimThread& t, bool& flag) -> sim::Coro<void> {
        co_await t.gate();
        flag = true;
      }(f.process.main_thread(), passed),
      "gated");
  f.engine.schedule_at(sim::milliseconds(7), [&] { f.process.resume(); });
  f.engine.run();
  EXPECT_TRUE(passed);
  EXPECT_EQ(f.engine.now(), sim::milliseconds(7));
}

TEST(Process, FlagsDefaultZeroAndWake) {
  Fixture f;
  sim::TimeNs woke = -1;
  EXPECT_EQ(f.process.flag("dynvt_spin"), 0);
  f.engine.spawn(
      [](SimProcess& p, sim::TimeNs& out) -> sim::Coro<void> {
        co_await p.wait_flag("dynvt_spin", 1);
        out = p.engine().now();
      }(f.process, woke),
      "spinner");
  f.engine.schedule_at(sim::milliseconds(2), [&] { f.process.set_flag("dynvt_spin", 1); });
  f.engine.run();
  EXPECT_EQ(woke, sim::milliseconds(2));
  EXPECT_EQ(f.process.flag("dynvt_spin"), 1);
}

TEST(Process, WaitFlagAlreadySatisfiedReturnsImmediately) {
  Fixture f;
  f.process.set_flag("x", 5);
  bool done = false;
  f.engine.spawn(
      [](SimProcess& p, bool& flag) -> sim::Coro<void> {
        co_await p.wait_flag("x", 5);
        flag = true;
      }(f.process, done),
      "w");
  f.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.engine.now(), 0);
}

TEST(Process, CallFunctionFiresStaticInstrumentation) {
  Fixture f;
  std::vector<std::string> calls;
  f.process.registry().register_function(
      "VT_begin", [&calls](SimThread&, LibraryRegistry::Args args) -> sim::Coro<void> {
        calls.push_back("begin:" + std::to_string(args[0]));
        co_return;
      });
  f.process.registry().register_function(
      "VT_end", [&calls](SimThread&, LibraryRegistry::Args args) -> sim::Coro<void> {
        calls.push_back("end:" + std::to_string(args[0]));
        co_return;
      });
  f.process.image().set_static_instrumented(1, true);
  f.engine.spawn(
      [](SimThread& t, std::vector<std::string>& log) -> sim::Coro<void> {
        co_await t.call_function(1, [&log](SimThread& t2) -> sim::Coro<void> {
          log.push_back("body");
          co_await t2.compute(100);
        });
      }(f.process.main_thread(), calls),
      "caller");
  f.engine.run();
  EXPECT_EQ(calls, (std::vector<std::string>{"begin:1", "body", "end:1"}));
  EXPECT_EQ(f.process.main_thread().function_entries(), 1u);
}

TEST(Process, CallFunctionExecutesDynamicProbesAndChargesTrampolines) {
  Fixture f;
  int probes = 0;
  f.process.registry().register_function(
      "probe_fn", [&probes](SimThread&, LibraryRegistry::Args) -> sim::Coro<void> {
        ++probes;
        co_return;
      });
  f.process.image().install_probe(1, image::ProbeWhere::kEntry, image::snippet::call("probe_fn"));
  f.process.image().install_probe(1, image::ProbeWhere::kExit, image::snippet::call("probe_fn"));
  f.engine.spawn(
      [](SimThread& t) -> sim::Coro<void> { co_await t.call_function(1, nullptr); }(
          f.process.main_thread()),
      "caller");
  f.engine.run();
  EXPECT_EQ(probes, 2);
  // Two trampoline traversals were charged.
  const auto& costs = f.cluster.spec().costs;
  const sim::TimeNs per = costs.tramp_jump + costs.tramp_save_regs + costs.tramp_restore_regs +
                          costs.tramp_relocated_insn + costs.tramp_mini_dispatch;
  EXPECT_EQ(f.engine.now(), 2 * per);
}

TEST(Process, LeafCallChargesTrampolinesAroundItsWork) {
  Fixture f;
  f.process.image().install_probe(1, image::ProbeWhere::kEntry, image::snippet::noop());
  f.process.image().install_probe(1, image::ProbeWhere::kExit, image::snippet::noop());
  const machine::CostModel& costs = f.cluster.spec().costs;
  const sim::TimeNs tramps =
      f.process.image().trampoline_overhead(1, image::ProbeWhere::kEntry, costs) +
      f.process.image().trampoline_overhead(1, image::ProbeWhere::kExit, costs);
  ASSERT_GT(tramps, 0);
  f.engine.spawn(
      [](SimThread& t) -> sim::Coro<void> {
        co_await t.call_function(1, sim::microseconds(5));
        co_await t.call_function(1, 0);
      }(f.process.main_thread()),
      "p");
  f.engine.run();
  EXPECT_EQ(f.engine.now(), sim::microseconds(5) + 2 * tramps);
  EXPECT_EQ(f.process.main_thread().function_entries(), 2u);
  EXPECT_EQ(f.process.main_thread().call_depth(), 0);
}

TEST(Process, UninstrumentedCallCostsNothing) {
  // The paper's central premise: an unpatched, uninstrumented function has
  // exactly zero instrumentation cost.
  Fixture f;
  f.engine.spawn(
      [](SimThread& t) -> sim::Coro<void> { co_await t.call_function(1, nullptr); }(
          f.process.main_thread()),
      "caller");
  f.engine.run();
  EXPECT_EQ(f.engine.now(), 0);
}

TEST(Process, UnresolvedLibraryFunctionThrows) {
  Fixture f;
  f.process.image().set_static_instrumented(1, true);  // needs VT_begin, not linked
  f.engine.spawn(
      [](SimThread& t) -> sim::Coro<void> { co_await t.call_function(1, nullptr); }(
          f.process.main_thread()),
      "caller");
  EXPECT_THROW(f.engine.run(), Error);
}

TEST(Process, BoundAndByNameCallsReachTheSameEntry) {
  Fixture f;
  std::vector<std::int64_t> seen;
  f.process.registry().register_function(
      "VT_end", [&seen](SimThread&, LibraryRegistry::Args args) -> sim::Coro<void> {
        seen.push_back(args[0]);
        co_return;
      });
  ASSERT_NE(f.process.registry().find(image::LibEntry::kVtEnd), nullptr);
  EXPECT_EQ(f.process.registry().find("VT_end"), f.process.registry().find(image::LibEntry::kVtEnd));
  EXPECT_EQ(f.process.registry().size(), 1u);
  const auto call = image::snippet::call("VT_end", {4});
  f.engine.spawn(
      [](SimThread& t, const image::Snippet& s) -> sim::Coro<void> {
        co_await t.exec_snippet(s);  // bound: by entry
        const std::vector<std::int64_t> arg{5};
        co_await t.lib_call("VT_end", arg);  // by name
      }(f.process.main_thread(), *call),
      "caller");
  f.engine.run();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{4, 5}));
}

TEST(Process, UnresolvedCallsNameTheFunction) {
  for (const char* name : {"VT_begin", "probe_fn"}) {
    Fixture f;
    const auto call = image::snippet::call(name, {1});
    f.engine.spawn(
        [](SimThread& t, const image::Snippet& s) -> sim::Coro<void> {
          co_await t.exec_snippet(s);
        }(f.process.main_thread(), *call),
        "caller");
    try {
      f.engine.run();
      FAIL() << "expected an unresolved-function error for " << name;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("unresolved library function '") + name),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Process, SnippetSpinAndFlagOps) {
  Fixture f;
  auto seq = image::snippet::seq({
      image::snippet::noop(),
      image::snippet::spin_until("b", 2),
  });
  sim::TimeNs done = -1;
  f.engine.spawn(
      [](SimThread& t, const image::Snippet& s, sim::TimeNs& out) -> sim::Coro<void> {
        co_await t.exec_snippet(s);
        out = t.engine().now();
      }(f.process.main_thread(), *seq, done),
      "snippet");
  f.engine.schedule_at(sim::milliseconds(5), [&] { f.process.set_flag("b", 2); });
  f.engine.run();
  EXPECT_EQ(done, sim::milliseconds(5));
}

TEST(Process, CallbackSnippetReachesSink) {
  Fixture f;
  std::string got_tag;
  int got_pid = -1;
  f.process.set_callback_sink([&](const std::string& tag, int pid) {
    got_tag = tag;
    got_pid = pid;
  });
  auto cb = image::snippet::callback("vt-ready");
  f.engine.spawn(
      [](SimThread& t, const image::Snippet& s) -> sim::Coro<void> {
        co_await t.exec_snippet(s);
      }(f.process.main_thread(), *cb),
      "snippet");
  f.engine.run();
  EXPECT_EQ(got_tag, "vt-ready");
  EXPECT_EQ(got_pid, 0);
}

TEST(Process, CallbackWithoutASinkWarnsOnStderr) {
  Fixture f;
  auto cb = image::snippet::callback("vt-ready");
  f.engine.spawn(
      [](SimThread& t, const image::Snippet& s) -> sim::Coro<void> {
        co_await t.exec_snippet(s);
      }(f.process.main_thread(), *cb),
      "snippet");
  testing::internal::CaptureStderr();
  f.engine.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "proc: process 0: callback 'vt-ready' with no instrumenter attached\n");
}

TEST(Process, RegisteringACustomFunctionAgainReplacesIt) {
  Fixture f;
  std::vector<int> seen;
  LibraryRegistry& registry = f.process.registry();
  auto recorder = [&seen](int mark) {
    return [&seen, mark](SimThread&, LibraryRegistry::Args) -> sim::Coro<void> {
      seen.push_back(mark);
      co_return;
    };
  };
  registry.register_function("probe_fn", recorder(1));
  registry.register_function("probe_fn", recorder(2));
  EXPECT_EQ(registry.size(), 1u);
  f.engine.spawn(
      [](SimThread& t) -> sim::Coro<void> { co_await t.lib_call("probe_fn", {}); }(
          f.process.main_thread()),
      "caller");
  f.engine.run();
  EXPECT_EQ(seen, std::vector<int>{2});
}

TEST(Process, AddThreadAssignsCpusAndTids) {
  Fixture f;
  SimThread& t1 = f.process.add_thread(1);
  SimThread& t2 = f.process.add_thread(2);
  EXPECT_EQ(t1.tid(), 1);
  EXPECT_EQ(t2.tid(), 2);
  EXPECT_EQ(t2.cpu(), 2);
  EXPECT_EQ(f.process.threads().size(), 3u);
}

TEST(Process, SuspendFreezesAllThreads) {
  Fixture f;
  SimThread& worker = f.process.add_thread(1);
  sim::TimeNs main_done = -1, worker_done = -1;
  f.engine.spawn(
      [](SimThread& t, sim::TimeNs& out) -> sim::Coro<void> {
        co_await t.compute(sim::milliseconds(10));
        out = t.engine().now();
      }(f.process.main_thread(), main_done),
      "main");
  f.engine.spawn(
      [](SimThread& t, sim::TimeNs& out) -> sim::Coro<void> {
        co_await t.compute(sim::milliseconds(6));
        out = t.engine().now();
      }(worker, worker_done),
      "worker");
  f.engine.schedule_at(sim::milliseconds(2), [&] { f.process.suspend(); });
  f.engine.schedule_at(sim::milliseconds(5), [&] { f.process.resume(); });
  f.engine.run();
  EXPECT_EQ(main_done, sim::milliseconds(13));
  EXPECT_EQ(worker_done, sim::milliseconds(9));
}

TEST(Process, SuspendAcrossAnOpenMpTeam) {
  Fixture f;
  omp::OmpRuntime runtime(f.process, 4);
  sim::TimeNs region_start = -1;
  std::vector<sim::TimeNs> done(4, -1);
  f.engine.spawn(
      [](Fixture& fx, omp::OmpRuntime& rt, sim::TimeNs& start,
         std::vector<sim::TimeNs>& out) -> sim::Coro<void> {
        co_await rt.parallel(
            fx.process.main_thread(),
            [&fx, &start, &out](SimThread& t, int tnum, int) -> sim::Coro<void> {
              sim::Engine& eng = t.engine();
              if (tnum == 0) {
                // The master enters the region first: freeze the team
                // 2 ms in, for 3 ms.
                start = eng.now();
                eng.schedule_after(sim::milliseconds(2), [&fx] { fx.process.suspend(); });
                eng.schedule_after(sim::milliseconds(5), [&fx] { fx.process.resume(); });
                co_await t.compute(sim::milliseconds(10));  // frozen mid-compute
              } else if (tnum == 1) {
                co_await t.compute(sim::milliseconds(4));  // frozen mid-compute
              } else if (tnum == 2) {
                co_await t.compute(sim::milliseconds(1));  // done before the suspend
              } else {
                co_await eng.sleep(sim::milliseconds(3));
                co_await t.compute(sim::milliseconds(1));  // starts while suspended
              }
              out[static_cast<std::size_t>(tnum)] = eng.now() - start;
            });
      }(f, runtime, region_start, done),
      "omp-master");
  f.engine.run();
  ASSERT_GE(region_start, 0);
  EXPECT_EQ(done, (std::vector<sim::TimeNs>{sim::milliseconds(13), sim::milliseconds(7),
                                            sim::milliseconds(1), sim::milliseconds(6)}));
  EXPECT_EQ(f.process.suspend_count(), 1u);
}

}  // namespace
}  // namespace dyntrace::proc
