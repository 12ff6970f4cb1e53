// VT_traceon / VT_traceoff: runtime master switch for trace collection.
#include <gtest/gtest.h>

#include "vt/vtlib.hpp"

namespace dyntrace::vt {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main");
  table->add("fn");
  return table;
}

struct Fixture {
  Fixture()
      : cluster(engine, machine::ibm_power3_sp()),
        process(cluster, 0, 0, 0, image::ProgramImage(make_symbols())),
        store(std::make_shared<TraceStore>()),
        vt(process, store, {}) {
    vt.link();
  }

  void run(std::function<sim::Coro<void>(proc::SimThread&)> body) {
    engine.spawn(
        [](proc::SimThread& t,
           std::function<sim::Coro<void>(proc::SimThread&)> fn) -> sim::Coro<void> {
          co_await fn(t);
        }(process.main_thread(), std::move(body)),
        "body");
    engine.run();
  }

  sim::Engine engine;
  machine::Cluster cluster;
  proc::SimProcess process;
  std::shared_ptr<TraceStore> store;
  VtLib vt;
};

TEST(TraceOnOff, OffWindowDropsEvents) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    co_await f.vt.vt_begin(t, 1);
    co_await f.vt.vt_end(t, 1);
    f.vt.trace_off();
    co_await f.vt.vt_begin(t, 1);
    co_await f.vt.vt_end(t, 1);
    co_await f.vt.record(t, EventKind::kMsgSend, 1, 64);
    f.vt.trace_on();
    co_await f.vt.vt_begin(t, 1);
    co_await f.vt.vt_end(t, 1);
    co_await f.vt.vt_finalize(t);
  });
  EXPECT_EQ(f.store->size(), 4u);  // two pairs traced, the off window gone
  EXPECT_EQ(f.vt.events_dropped_traceoff(), 3u);
}

TEST(TraceOnOff, OffIsCheaperThanActiveAndThanFiltered) {
  Fixture f;
  sim::TimeNs active = 0, off = 0;
  f.run([&](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    co_await f.vt.vt_begin(t, 1);  // pay funcdef once
    co_await f.vt.vt_end(t, 1);
    sim::TimeNs t0 = f.engine.now();
    co_await f.vt.vt_begin(t, 1);
    active = f.engine.now() - t0;
    co_await f.vt.vt_end(t, 1);
    f.vt.trace_off();
    t0 = f.engine.now();
    co_await f.vt.vt_begin(t, 1);
    off = f.engine.now() - t0;
  });
  EXPECT_LT(off, active / 5);
  EXPECT_EQ(off, f.cluster.spec().costs.vt_call_overhead);
}

TEST(TraceOnOff, SteadyCostAndRecordsReflectState) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> { co_await f.vt.vt_init(t); });
  const sim::TimeNs active = f.vt.steady_call_cost(1);
  EXPECT_GT(active, f.cluster.spec().costs.vt_call_overhead);
  f.vt.trace_off();
  EXPECT_EQ(f.vt.steady_call_cost(1), f.cluster.spec().costs.vt_call_overhead);
  f.vt.trace_on();
  EXPECT_EQ(f.vt.steady_call_cost(1), active);
}

TEST(TraceOnOff, CallableFromSnippetsViaRegistry) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await t.lib_call("VT_init");
    co_await t.lib_call("VT_traceoff");
    EXPECT_FALSE(f.vt.tracing());
    std::vector<std::int64_t> arg(1, 1);
    co_await t.lib_call("VT_begin", arg);
    co_await t.lib_call("VT_traceon");
    EXPECT_TRUE(f.vt.tracing());
  });
  EXPECT_EQ(f.vt.events_dropped_traceoff(), 1u);
}

TEST(TraceOnOff, StatisticsFrozenWhileOff) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    co_await f.vt.vt_begin(t, 1);
    co_await f.vt.vt_end(t, 1);
    f.vt.trace_off();
    for (int i = 0; i < 5; ++i) {
      co_await f.vt.vt_begin(t, 1);
      co_await f.vt.vt_end(t, 1);
    }
  });
  EXPECT_EQ(f.vt.statistics()[1].calls, 1u);
}

}  // namespace
}  // namespace dyntrace::vt
