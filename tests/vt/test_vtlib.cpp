#include "vt/vtlib.hpp"

#include <gtest/gtest.h>

#include "guide/compiler.hpp"

namespace dyntrace::vt {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main");
  table->add("hot_fn");
  table->add("cold_fn");
  return table;
}

struct Fixture {
  explicit Fixture(VtLib::Options options = {})
      : cluster(engine, machine::ibm_power3_sp()),
        process(cluster, 0, 0, 0, image::ProgramImage(make_symbols())),
        store(std::make_shared<TraceStore>()),
        vt(process, store, std::move(options)) {
    vt.link();
  }

  /// Run `body` on the process main thread to completion.
  void run(std::function<sim::Coro<void>(proc::SimThread&)> body) {
    engine.spawn(
        [](proc::SimThread& t,
           std::function<sim::Coro<void>(proc::SimThread&)> fn) -> sim::Coro<void> {
          co_await fn(t);
        }(process.main_thread(), std::move(body)),
        "test-body");
    engine.run();
  }

  sim::Engine engine;
  machine::Cluster cluster;
  proc::SimProcess process;
  std::shared_ptr<TraceStore> store;
  VtLib vt;
};

TEST(VtLib, BeginEndRecordEventsAfterInit) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    co_await f.vt.vt_begin(t, 1);
    co_await t.compute(sim::microseconds(10));
    co_await f.vt.vt_end(t, 1);
    co_await f.vt.vt_finalize(t);
  });
  const auto events = f.store->merged();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kEnter);
  EXPECT_EQ(events[0].code, 1);
  EXPECT_EQ(events[1].kind, EventKind::kLeave);
  EXPECT_GT(events[1].time, events[0].time);
  EXPECT_EQ(f.vt.events_recorded(), 2u);
}

TEST(VtLib, CallsBeforeInitAreDroppedSafely) {
  // §3.4: calling VT before initialization is unsafe in real VT; we model
  // the defensive path and count the drops.
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_begin(t, 1);
    co_await f.vt.vt_end(t, 1);
  });
  EXPECT_EQ(f.store->size(), 0u);
  EXPECT_EQ(f.vt.events_dropped_preinit(), 2u);
}

TEST(VtLib, FullPolicyHasNoFilterLookups) {
  // No config file: filter disabled, active cost excludes the lookup.
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> { co_await f.vt.vt_init(t); });
  EXPECT_FALSE(f.vt.filter().enabled());
  const auto& costs = f.cluster.spec().costs;
  EXPECT_EQ(f.vt.steady_call_cost(1), costs.vt_call_overhead + costs.vt_timestamp +
                                          costs.vt_record + costs.vt_flush_per_record);
  EXPECT_TRUE(f.vt.records(1));
}

TEST(VtLib, DeactivatedSymbolPaysLookupOnly) {
  VtLib::Options options;
  options.config_filter = compile_filter(*make_symbols(), {{false, "hot_fn"}});
  Fixture f(std::move(options));
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    co_await f.vt.vt_begin(t, 1);  // hot_fn: deactivated
    co_await f.vt.vt_end(t, 1);
    co_await f.vt.vt_begin(t, 2);  // cold_fn: active
    co_await f.vt.vt_end(t, 2);
  });
  EXPECT_EQ(f.vt.events_filtered(), 2u);
  EXPECT_EQ(f.vt.events_recorded(), 2u);  // only cold_fn traced
  const auto& costs = f.cluster.spec().costs;
  EXPECT_EQ(f.vt.steady_call_cost(1), costs.vt_call_overhead + costs.vt_filter_lookup);
  EXPECT_FALSE(f.vt.records(1));
  // Active symbols pay the lookup *plus* the trace cost once a config file
  // was read.
  EXPECT_EQ(f.vt.steady_call_cost(2),
            costs.vt_call_overhead + costs.vt_filter_lookup + costs.vt_timestamp +
                costs.vt_record + costs.vt_flush_per_record);
}

TEST(VtLib, FirstCallChargesFuncdef) {
  Fixture f;
  sim::TimeNs first = 0, second = 0;
  f.run([&](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    sim::TimeNs t0 = f.engine.now();
    co_await f.vt.vt_begin(t, 1);
    first = f.engine.now() - t0;
    t0 = f.engine.now();
    co_await f.vt.vt_begin(t, 1);
    second = f.engine.now() - t0;
  });
  EXPECT_EQ(first - second, f.cluster.spec().costs.vt_funcdef);
}

TEST(VtLib, BufferFlushesWhenFull) {
  VtLib::Options options;
  options.buffer_records = 4;
  Fixture f(std::move(options));
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    for (int i = 0; i < 5; ++i) {
      co_await f.vt.vt_begin(t, 1);
      co_await f.vt.vt_end(t, 1);
    }
  });
  EXPECT_GE(f.vt.flushes(), 2u);
  // Events before the last partial buffer are already in the store.
  EXPECT_GE(f.store->size(), 8u);
}

TEST(VtLib, FinalizeFlushesRemainder) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    co_await f.vt.vt_begin(t, 2);
    co_await f.vt.vt_end(t, 2);
    EXPECT_EQ(f.store->size(), 0u);  // still buffered
    co_await f.vt.vt_finalize(t);
  });
  EXPECT_EQ(f.store->size(), 2u);
}

TEST(VtLib, StatisticsTrackCallsAndInclusiveTime) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    for (int i = 0; i < 3; ++i) {
      co_await f.vt.vt_begin(t, 1);
      co_await t.compute(sim::milliseconds(2));
      co_await f.vt.vt_end(t, 1);
    }
  });
  const auto& stats = f.vt.statistics();
  EXPECT_EQ(stats[1].calls, 3u);
  EXPECT_GE(stats[1].inclusive, sim::milliseconds(6));
  EXPECT_EQ(stats[2].calls, 0u);
}

TEST(VtLib, SyntheticPairsUpdateStatsAndVirtualEvents) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> { co_await f.vt.vt_init(t); });
  f.vt.note_synthetic_pairs(1, 1000, sim::microseconds(5));
  EXPECT_EQ(f.vt.statistics()[1].calls, 1000u);
  EXPECT_EQ(f.vt.virtual_events(), 2000u);
  EXPECT_EQ(f.vt.events_recorded(), 0u);  // nothing materialised
}

TEST(VtLib, SyntheticPairsOnFilteredSymbolCountAsFiltered) {
  VtLib::Options options;
  options.config_filter = compile_filter(*make_symbols(), {{false, "*"}});
  Fixture f(std::move(options));
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> { co_await f.vt.vt_init(t); });
  f.vt.note_synthetic_pairs(1, 500, 0);
  EXPECT_EQ(f.vt.events_filtered(), 1000u);
  EXPECT_EQ(f.vt.virtual_events(), 0u);
}

TEST(VtLib, LinkedFunctionsAreCallableFromSnippets) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await t.lib_call("VT_init");
    std::vector<std::int64_t> arg(1, 2);
    co_await t.lib_call("VT_begin", arg);
    co_await t.lib_call("VT_end", arg);
    co_await t.lib_call("VT_finalize");
  });
  EXPECT_EQ(f.store->size(), 2u);
}

TEST(VtLib, RecordChargesAndStoresNonSubroutineEvents) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    co_await f.vt.record(t, EventKind::kMsgSend, 3, 4096);
    co_await f.vt.vt_finalize(t);
  });
  const auto events = f.store->merged();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kMsgSend);
  EXPECT_EQ(events[0].aux, 4096);
}

TEST(VtLib, MismatchedEndUnwindsStatisticsStack) {
  // dynprof can patch an exit probe without the matching entry probe ever
  // having fired, so VT_end may see a function that is not on top of the
  // statistics stack.  The stack must unwind to the matching frame instead
  // of leaking it (and every stale frame above it) forever.
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    co_await f.vt.vt_begin(t, 1);  // hot_fn
    co_await t.compute(sim::milliseconds(4));
    co_await f.vt.vt_begin(t, 2);  // cold_fn -- its end probe never fires
    co_await t.compute(sim::milliseconds(1));
    co_await f.vt.vt_end(t, 1);  // unwinds past the stale cold_fn frame
    // The stack is clean again: a later well-nested pair must still work.
    co_await f.vt.vt_begin(t, 1);
    co_await t.compute(sim::milliseconds(2));
    co_await f.vt.vt_end(t, 1);
  });
  const auto& stats = f.vt.statistics();
  EXPECT_EQ(stats[1].calls, 2u);
  EXPECT_GE(stats[1].inclusive, sim::milliseconds(7));  // 4+1 then 2
  // A second end for the unwound frame must not resurrect stale time.
  Fixture g;
  g.run([&g](proc::SimThread& t) -> sim::Coro<void> {
    co_await g.vt.vt_init(t);
    co_await g.vt.vt_begin(t, 1);
    co_await g.vt.vt_begin(t, 2);
    co_await g.vt.vt_end(t, 1);
    co_await t.compute(sim::milliseconds(9));
    co_await g.vt.vt_end(t, 2);  // frame was dropped by the unwind
  });
  EXPECT_LT(g.vt.statistics()[2].inclusive, sim::milliseconds(9));
}

TEST(VtLib, EndFirstCallChargesFuncdef) {
  // When dynprof patches probes into a running application the first probe
  // to fire for a function can be its *exit*; the lazy VT_funcdef charge
  // must apply there too, exactly once.
  Fixture f;
  sim::TimeNs first = 0, second = 0, begin_cost = 0;
  f.run([&](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    sim::TimeNs t0 = f.engine.now();
    co_await f.vt.vt_end(t, 1);  // fn 1 never seen before
    first = f.engine.now() - t0;
    t0 = f.engine.now();
    co_await f.vt.vt_end(t, 1);
    second = f.engine.now() - t0;
    // And a later vt_begin must not charge it again.
    t0 = f.engine.now();
    co_await f.vt.vt_begin(t, 1);
    begin_cost = f.engine.now() - t0;
  });
  EXPECT_EQ(first - second, f.cluster.spec().costs.vt_funcdef);
  EXPECT_EQ(begin_cost, second);
}

TEST(VtLib, SyntheticPairsBeforeInitCountAsPreinitDrops) {
  Fixture f;
  f.vt.note_synthetic_pairs(1, 250, 0);
  EXPECT_EQ(f.vt.events_dropped_preinit(), 500u);
  EXPECT_EQ(f.vt.events_filtered(), 0u);
  EXPECT_EQ(f.vt.virtual_events(), 0u);
}

TEST(VtLib, SyntheticPairsWhileTraceOffCountAsTraceoffDrops) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> { co_await f.vt.vt_init(t); });
  f.vt.trace_off();
  f.vt.note_synthetic_pairs(1, 125, 0);
  EXPECT_EQ(f.vt.events_dropped_traceoff(), 250u);
  EXPECT_EQ(f.vt.events_filtered(), 0u);
  EXPECT_EQ(f.vt.virtual_events(), 0u);
}

TEST(VtLib, InitIsIdempotent) {
  Fixture f;
  f.run([&f](proc::SimThread& t) -> sim::Coro<void> {
    co_await f.vt.vt_init(t);
    co_await f.vt.vt_init(t);
    EXPECT_TRUE(f.vt.initialized());
  });
}

}  // namespace
}  // namespace dyntrace::vt
