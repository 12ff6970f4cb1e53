// Self-telemetry registry (DESIGN.md §12): shard-per-thread counters must be
// exact once writers synchronize, log2 histogram buckets must land on their
// documented boundaries, spans must close even when the fault injector
// destroys a coroutine frame mid-await, and the exported artifacts (flat
// stats JSON, Chrome trace JSON) must stay schema-valid and golden-stable.
#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dynprof/policy.hpp"
#include "dynprof/tool.hpp"
#include "fault/injector.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "support/common.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace dyntrace::telemetry {
namespace {

TEST(TelemetryLevel, StringsRoundTrip) {
  EXPECT_EQ(level_from_string("off"), Level::kOff);
  EXPECT_EQ(level_from_string("counters"), Level::kCounters);
  EXPECT_EQ(level_from_string("spans"), Level::kSpans);
  EXPECT_STREQ(to_string(Level::kSpans), "spans");
  EXPECT_THROW(level_from_string("verbose"), Error);
}

TEST(TelemetryHistogram, BucketBoundariesFollowBitWidth) {
  // Bucket 0 holds zeros; bucket b >= 1 holds 2^(b-1) <= v < 2^b.
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  for (std::uint32_t k = 1; k < 64; ++k) {
    const std::uint64_t pow = std::uint64_t{1} << k;
    EXPECT_EQ(histogram_bucket(pow - 1), k) << "2^" << k << "-1";
    EXPECT_EQ(histogram_bucket(pow), k + 1) << "2^" << k;
    EXPECT_EQ(histogram_bucket_lower(k), std::uint64_t{1} << (k - 1));
  }
  EXPECT_EQ(histogram_bucket(~std::uint64_t{0}), 64u);
  EXPECT_EQ(histogram_bucket_lower(0), 0u);
}

TEST(TelemetryRegistry, ConcurrentIncrementsAreExactAfterJoin) {
  // The shard-per-thread design's core promise: no increment is ever lost,
  // at any writer count.
  for (const int threads : {1, 2, 4, 8}) {
    Registry reg(Level::kCounters);
    const CounterId hits = reg.counter("test.hits");
    const CounterId bulk = reg.counter("test.bulk");
    constexpr std::uint64_t kPerThread = 50'000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&reg, hits, bulk] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          reg.add(hits);
          if (i % 16 == 0) reg.add(bulk, 3);
        }
      });
    }
    for (auto& w : workers) w.join();
    const Registry::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter_value("test.hits"), kPerThread * threads) << threads;
    EXPECT_EQ(snap.counter_value("test.bulk"), (kPerThread / 16) * 3 * threads) << threads;
  }
}

TEST(TelemetryRegistry, GaugesMergeAcrossThreadsBySum) {
  Registry reg(Level::kCounters);
  const GaugeId depth = reg.gauge("test.depth");
  reg.set(depth, 10);
  std::thread other([&reg, depth] {
    reg.set(depth, 32);
    reg.gauge_add(depth, -2);
  });
  other.join();
  // Each shard holds its own last value; the merge sums them, so per-shard
  // "current depth" gauges read as a job-wide total.  Look the gauge up by
  // name: the pre-registered catalog contributes gauges of its own.
  const Registry::Snapshot snap = reg.snapshot();
  const auto it = std::find_if(snap.gauges.begin(), snap.gauges.end(),
                               [](const auto& g) { return g.first == "test.depth"; });
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_EQ(it->second, 40);
}

TEST(TelemetryRegistry, HistogramObserveFillsBucketCountAndSum) {
  Registry reg(Level::kCounters);
  const HistogramId h = reg.histogram("test.sizes");
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1023ull, 1024ull}) {
    reg.observe(h, v);
  }
  std::thread other([&reg, h] { reg.observe(h, 7); });
  other.join();
  const Registry::Snapshot snap = reg.snapshot();
  // The pre-registered Metrics catalog contributes histograms too; find ours.
  const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                               [](const auto& hs) { return hs.name == "test.sizes"; });
  ASSERT_NE(it, snap.histograms.end());
  const auto& hist = *it;
  EXPECT_EQ(hist.count, 8u);
  EXPECT_EQ(hist.sum, 0u + 1 + 2 + 3 + 4 + 1023 + 1024 + 7);
  EXPECT_EQ(hist.buckets[0], 1u);   // the zero
  EXPECT_EQ(hist.buckets[1], 1u);   // 1
  EXPECT_EQ(hist.buckets[2], 2u);   // 2, 3
  EXPECT_EQ(hist.buckets[3], 2u);   // 4, 7
  EXPECT_EQ(hist.buckets[10], 1u);  // 1023
  EXPECT_EQ(hist.buckets[11], 1u);  // 1024
}

TEST(TelemetryRegistry, OffLevelDropsEverythingAndSpansNeedSpansLevel) {
  Registry reg(Level::kOff);
  const Metrics& m = reg.metrics();
  reg.add(m.sim_events, 100);
  reg.observe(m.control_overlay_fanin_ns, 42);
  reg.span_begin(m.span_confsync, 0, 0);
  EXPECT_EQ(reg.snapshot().counter_value("sim.events"), 0u);
  EXPECT_EQ(reg.span_event_count(), 0u);

  // counters: cells count, spans still gated off.
  reg.set_level(Level::kCounters);
  reg.add(m.sim_events, 5);
  reg.span_begin(m.span_confsync, 0, 0);
  EXPECT_EQ(reg.snapshot().counter_value("sim.events"), 5u);
  EXPECT_EQ(reg.span_event_count(), 0u);

  reg.set_level(Level::kSpans);
  reg.span_begin(m.span_confsync, 0, 0);
  EXPECT_EQ(reg.span_event_count(), 1u);
}

TEST(TelemetryRegistry, RegistrationIsIdempotentAndKindChecked) {
  Registry reg(Level::kCounters);
  const CounterId a = reg.counter("test.metric");
  const CounterId b = reg.counter("test.metric");
  EXPECT_EQ(a.cell, b.cell);
  EXPECT_THROW(reg.gauge("test.metric"), Error);
  EXPECT_THROW(reg.histogram("test.metric"), Error);
  // Span names live in their own namespace and are idempotent too.
  EXPECT_EQ(reg.span_name("test.metric").id, reg.span_name("test.metric").id);
}

TEST(TelemetryKeyedCounter, CountsRanksAndDetachesOnDestruction) {
  Registry reg(Level::kCounters);
  {
    KeyedCounter samples("test.samples");
    samples.attach(reg);
    samples.add(7, 3);
    samples.add(2, 5);
    samples.add(7);
    EXPECT_EQ(samples.total(), 9u);
    EXPECT_EQ(samples.at(7), 4u);
    EXPECT_EQ(samples.at(99), 0u);
    const auto ranked = samples.ranked();
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked[0], (std::pair<std::int64_t, std::uint64_t>{2, 5}));
    EXPECT_EQ(ranked[1], (std::pair<std::int64_t, std::uint64_t>{7, 4}));

    const Registry::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.keyed.size(), 1u);
    EXPECT_EQ(snap.keyed[0].first, "test.samples");
    ASSERT_EQ(snap.keyed[0].second.size(), 2u);
    EXPECT_EQ(snap.keyed[0].second[0].first, 2);  // export order: by key
  }
  EXPECT_TRUE(reg.snapshot().keyed.empty());  // detached by the destructor
}

TEST(TelemetryRegistry, ScopedRegistryInstallsAndRestoresCurrent) {
  Registry& base = current();
  Registry mine(Level::kCounters);
  {
    ScopedRegistry scope(mine);
    EXPECT_EQ(&current(), &mine);
    Registry nested(Level::kOff);
    {
      ScopedRegistry inner(nested);
      EXPECT_EQ(&current(), &nested);
    }
    EXPECT_EQ(&current(), &mine);
  }
  EXPECT_EQ(&current(), &base);
}

// --- span export ------------------------------------------------------------

TEST(TelemetrySpans, ChromeTraceJsonMatchesGoldenFile) {
  // Handcrafted event sequence covering all three phases, track metadata,
  // and the auto-close of a span left open by a killed process.  The golden
  // string pins the exact serialization Perfetto will be handed.
  Registry reg(Level::kSpans);
  const Metrics& m = reg.metrics();
  const SpanName phase = reg.span_name("phase");
  reg.name_track(0, "rank 0");
  reg.name_track(Metrics::kToolTrack, "controller");
  reg.span_begin(phase, 0, 1000);
  reg.span_begin(m.span_confsync, 0, 1500);
  reg.span_instant(m.span_decision, Metrics::kToolTrack, 2000);
  reg.span_end(m.span_confsync, 0, 2500);
  reg.span_end(phase, 0, 3000);
  reg.span_begin(m.span_reduce, 0, 3500);  // never closed: auto-close at 3.5us

  const char* golden =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"thread_name\", "
      "\"args\": {\"name\": \"rank 0\"}},\n"
      "{\"ph\": \"M\", \"pid\": 0, \"tid\": 1000000, \"name\": \"thread_name\", "
      "\"args\": {\"name\": \"controller\"}},\n"
      "{\"ph\": \"B\", \"ts\": 1.000, \"pid\": 0, \"tid\": 0, \"cat\": \"dyntrace\", "
      "\"name\": \"phase\"},\n"
      "{\"ph\": \"B\", \"ts\": 1.500, \"pid\": 0, \"tid\": 0, \"cat\": \"dyntrace\", "
      "\"name\": \"confsync\"},\n"
      "{\"ph\": \"i\", \"ts\": 2.000, \"pid\": 0, \"tid\": 1000000, \"cat\": \"dyntrace\", "
      "\"name\": \"decision\", \"s\": \"t\"},\n"
      "{\"ph\": \"E\", \"ts\": 2.500, \"pid\": 0, \"tid\": 0, \"cat\": \"dyntrace\", "
      "\"name\": \"confsync\"},\n"
      "{\"ph\": \"E\", \"ts\": 3.000, \"pid\": 0, \"tid\": 0, \"cat\": \"dyntrace\", "
      "\"name\": \"phase\"},\n"
      "{\"ph\": \"B\", \"ts\": 3.500, \"pid\": 0, \"tid\": 0, \"cat\": \"dyntrace\", "
      "\"name\": \"reduce\"},\n"
      "{\"ph\": \"E\", \"ts\": 3.500, \"pid\": 0, \"tid\": 0, \"cat\": \"dyntrace\", "
      "\"name\": \"reduce\"}\n"
      "]}\n";
  EXPECT_EQ(reg.chrome_trace_json(), golden);

  // The golden artifact itself must parse as schema-valid trace JSON.
  const JsonValue doc = parse_json(reg.chrome_trace_json());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 9u);
  for (const JsonValue& event : events) {
    const std::string& ph = event.at("ph").as_string();
    EXPECT_TRUE(ph == "M" || ph == "B" || ph == "E" || ph == "i") << ph;
    EXPECT_EQ(event.at("pid").as_int(), 0);
    if (ph != "M") {
      EXPECT_GE(event.at("ts").as_number(), 0.0);
    }
  }
}

sim::TimeNs engine_clock(const void* ctx) {
  return static_cast<const sim::Engine*>(ctx)->now();
}

sim::Coro<void> open_spans_then_hang(sim::Engine& engine, sim::Trigger& never, Registry& reg) {
  telemetry::ScopedSpan outer(reg, reg.metrics().span_reduce, 7, engine_clock, &engine);
  co_await engine.sleep(sim::microseconds(5));
  telemetry::ScopedSpan inner(reg, reg.metrics().span_confsync, 7, engine_clock, &engine);
  co_await never.wait();  // the frame is destroyed here, never resumed
}

sim::Coro<void> advance_clock(sim::Engine& engine) { co_await engine.sleep(sim::microseconds(42)); }

TEST(TelemetrySpans, ScopedSpanClosesWhenFaultDestroysTheCoroutineFrame) {
  // The fault injector drops killed ranks' frames without resuming them
  // (span.hpp): destroying the suspended frame must run ScopedSpan's
  // destructor and emit real end events -- not rely on export auto-close.
  Registry reg(Level::kSpans);
  {
    sim::Engine engine;
    sim::Trigger never(engine);
    engine.spawn(open_spans_then_hang(engine, never, reg), "victim",
                 sim::Engine::SpawnOptions{.daemon = true});
    engine.spawn(advance_clock(engine), "clock");
    engine.run();
    // Both begins recorded, no ends yet: the victim still hangs on the
    // trigger.  (span_event_count counts *recorded* events; export-time
    // auto-close would not change it.)
    EXPECT_EQ(reg.span_event_count(), 2u);
  }  // ~Engine destroys the suspended frame -> both spans unwind
  ASSERT_EQ(reg.span_event_count(), 4u);

  // Inner closes before outer, both at the destruction time (t=42us).
  const JsonValue doc = parse_json(reg.chrome_trace_json());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[2].at("ph").as_string(), "E");
  EXPECT_EQ(events[2].at("name").as_string(), "confsync");
  EXPECT_EQ(events[3].at("ph").as_string(), "E");
  EXPECT_EQ(events[3].at("name").as_string(), "reduce");
  EXPECT_DOUBLE_EQ(events[2].at("ts").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(events[3].at("ts").as_number(), 42.0);
}

// --- JSON artifacts ---------------------------------------------------------

TEST(TelemetryJson, ParserHandlesScalarsNestingAndEscapes) {
  const JsonValue v = parse_json(
      "{\"a\": [1, 2.5, -3], \"s\": \"q\\\"\\n\\u0041\", \"b\": true, \"n\": null, "
      "\"o\": {\"k\": 7}}");
  EXPECT_EQ(v.at("a").as_array()[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_EQ(v.at("a").as_array()[2].as_int(), -3);
  EXPECT_EQ(v.at("s").as_string(), "q\"\nA");
  EXPECT_TRUE(v.at("b").as_bool());
  EXPECT_TRUE(v.at("n").is_null());
  EXPECT_EQ(v.at("o").at("k").as_int(), 7);
  EXPECT_FALSE(v.contains("missing"));
  EXPECT_THROW(v.at("missing"), Error);
  EXPECT_THROW(v.at("b").as_string(), Error);
}

TEST(TelemetryJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("{\"a\": }"), Error);
  EXPECT_THROW(parse_json("[1, 2,]"), Error);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), Error);
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  EXPECT_THROW(parse_json("tru"), Error);
}

TEST(TelemetryJson, StatsJsonRoundTripsThroughTheParser) {
  Registry reg(Level::kCounters);
  const Metrics& m = reg.metrics();
  reg.add(m.dpcl_requests, 12);
  reg.observe(m.control_overlay_fanin_ns, 100);
  reg.observe(m.control_overlay_fanin_ns, 0);
  KeyedCounter samples("test.samples");
  samples.attach(reg);
  samples.add(-3, 2);

  const JsonValue stats = parse_json(reg.stats_json());
  EXPECT_EQ(stats.at("level").as_string(), "counters");
  EXPECT_EQ(stats.at("counters").at("dpcl.requests").as_int(), 12);
  const JsonValue& hist = stats.at("histograms").at("control.overlay_fanin_ns");
  EXPECT_EQ(hist.at("count").as_int(), 2);
  EXPECT_EQ(hist.at("sum").as_int(), 100);
  // Sparse buckets: [lower_bound, count] pairs, zeros bucket first.
  const auto& buckets = hist.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].as_array()[0].as_int(), 0);
  EXPECT_EQ(buckets[1].as_array()[0].as_int(), 64);  // 64 <= 100 < 128
  EXPECT_EQ(stats.at("keyed").at("test.samples").at("-3").as_int(), 2);
}

}  // namespace
}  // namespace dyntrace::telemetry

// --- full-stack integration -------------------------------------------------

namespace dyntrace::dynprof {
namespace {

using telemetry::JsonValue;
using telemetry::parse_json;

/// Per-track open-span depth over the exported events; fails on an end
/// without a begin and returns the final depths (all zero = balanced).
std::map<std::int64_t, int> scan_span_depths(const JsonValue& doc) {
  std::map<std::int64_t, int> depth;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    const std::string& ph = event.at("ph").as_string();
    const std::int64_t tid = event.at("tid").as_int();
    if (ph == "B") ++depth[tid];
    if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "end without begin on track " << tid;
    }
  }
  return depth;
}

TEST(TelemetryIntegration, CountersMatchAcrossSimThreadSweep) {
  // Run-to-run identity of every counter: lost updates or double counts
  // would show up as a diff here.
  std::vector<telemetry::Registry::Snapshot> snaps;
  std::vector<std::uint64_t> digests;
  for (int run = 0; run < 2; ++run) {
    RunConfig config;
    config.app = &asci::sweep3d();
    config.policy = Policy::kDynamic;
    config.nprocs = 8;
    config.problem_scale = 0.15;
    config.telemetry_level = telemetry::Level::kCounters;
    config.telemetry_sink = [&snaps](const telemetry::Registry& reg) {
      snaps.push_back(reg.snapshot());
    };
    digests.push_back(run_policy(config).trace_digest);
  }
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_GT(snaps[0].counter_value("dpcl.requests"), 0u);
  EXPECT_GT(snaps[0].counter_value("sim.events"), 0u);
  EXPECT_EQ(digests[1], digests[0]) << "trace diverged";
  EXPECT_EQ(snaps[1].counters, snaps[0].counters);
}

TEST(TelemetryIntegration, LevelsDoNotPerturbTheSimulation) {
  // DESIGN.md §12's invariant: telemetry observes the run, never times it.
  std::vector<std::uint64_t> digests;
  for (const telemetry::Level level :
       {telemetry::Level::kOff, telemetry::Level::kCounters, telemetry::Level::kSpans}) {
    RunConfig config;
    config.app = &asci::sppm();
    config.policy = Policy::kDynamic;
    config.nprocs = 4;
    config.problem_scale = 0.2;
    config.telemetry_level = level;
    const PolicyResult r = run_policy(config);
    digests.push_back(r.trace_digest);
    EXPECT_GT(r.trace_events, 0u);
  }
  EXPECT_EQ(digests[1], digests[0]);
  EXPECT_EQ(digests[2], digests[0]);
}

TEST(TelemetryIntegration, AdaptiveRunExportsAlignedConfsyncSpans) {
  // The acceptance-bar artifact: an adaptive run at spans level exports a
  // Perfetto-loadable trace whose per-rank confsync spans agree with the
  // confsync round counter, alongside the overlay's reduce spans.
  std::string trace_json;
  telemetry::Registry::Snapshot snap;
  RunConfig config;
  config.app = &asci::smg98();
  config.policy = Policy::kAdaptive;
  config.nprocs = 8;
  config.problem_scale = 0.1;
  config.telemetry_level = telemetry::Level::kSpans;
  config.telemetry_sink = [&](const telemetry::Registry& reg) {
    trace_json = reg.chrome_trace_json();
    snap = reg.snapshot();
  };
  const PolicyResult r = run_policy(config);
  EXPECT_GT(r.confsyncs, 0u);

  const JsonValue doc = parse_json(trace_json);
  std::uint64_t confsync_begins = 0;
  std::uint64_t reduce_begins = 0;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "B") continue;
    const std::string& name = event.at("name").as_string();
    if (name == "confsync") {
      ++confsync_begins;
      EXPECT_LT(event.at("tid").as_int(), config.nprocs);  // rank tracks
    }
    if (name == "reduce") {
      ++reduce_begins;
      EXPECT_LT(event.at("tid").as_int(), config.nprocs);  // rank tracks
    }
  }
  EXPECT_EQ(confsync_begins, snap.counter_value("control.confsync_rounds"));
  EXPECT_GT(reduce_begins, 0u);
  for (const auto& [tid, depth] : scan_span_depths(doc)) {
    EXPECT_EQ(depth, 0) << "unbalanced spans on track " << tid;
  }
}

TEST(TelemetryIntegration, FaultedRunSpansStayBalancedAndSchemaValid) {
  // Message drops force control-plane retries while spans record; whatever
  // the injector interrupts, the export must stay well-nested and parse.
  auto injector = std::make_shared<fault::FaultInjector>(
      fault::FaultPlan::parse("seed 12\ndrop channel=daemon prob=0.1\n"));
  const asci::AppSpec* app = &asci::smg98();
  Launch::Options options;
  options.app = app;
  options.params.nprocs = 8;
  options.params.problem_scale = 0.2;
  // Safe points give the run confsync spans to keep balanced.
  options.params.confsync_interval = 2;
  options.policy = Policy::kDynamic;
  options.fault = injector;
  options.telemetry_level = telemetry::Level::kSpans;
  Launch launch(std::move(options));

  DynprofTool::Options topt;
  topt.command_files = {{"subset", app->dynamic_list}};
  DynprofTool tool(launch, std::move(topt));
  tool.run_script(parse_script("insert-file subset\nstart\nquit\n"));
  launch.engine().run();
  EXPECT_TRUE(tool.finished());

  const telemetry::Registry& reg = launch.telemetry_registry();
  EXPECT_GT(reg.snapshot().counter_value("fault.drops"), 0u);
  const JsonValue doc = parse_json(reg.chrome_trace_json());
  EXPECT_GT(doc.at("traceEvents").as_array().size(), 0u);
  for (const auto& [tid, depth] : scan_span_depths(doc)) {
    EXPECT_EQ(depth, 0) << "unbalanced spans on track " << tid;
  }
}

}  // namespace
}  // namespace dyntrace::dynprof
