// Self-telemetry overhead (DESIGN.md §12, EXPERIMENTS.md "Telemetry
// overhead").
//
// The telemetry hooks live permanently inside sim/control/vt/dpcl/fault, so
// their cost is paid by every run.  The acceptance bar: a full fig7a cell
// (Smg98, Dynamic, 64 ranks) at --telemetry=counters must cost < 1% extra
// over --telemetry=off, and no level may perturb the simulated results
// (identical trace digests).
//
// The enforced gate is computed, not raced: the cell takes ~0.1s of CPU,
// and on a shared CI box direct A/B timing of 0.1s runs is +/-3% noise --
// useless against a 1% bar.  Instead the bench (a) measures the per-op
// cost of the hot registry operations in a tight loop, (b) counts from the
// run's own snapshot exactly how many hook operations the cell executed
// (every per-call counter's value IS its call count; the three bulk-delta
// counters are replaced by their call sites), and gates
// (ops x ns/op) / run-CPU < 1%.  The interleaved A/B CPU comparison is
// still printed and exported, as the sanity check it is.
//
// Also exports one adaptive run's span trace as fig7a_spans.json -- the
// Perfetto-loadable artifact showing confsync rounds and overlay
// reductions per rank.  Emits BENCH_telemetry.json.
#include <ctime>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace dyntrace;

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

/// Process CPU seconds: immune to scheduler preemption, which swamps a 1%
/// wall-clock gate on a shared CI box.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct CellResult {
  double cpu_s = 0;
  std::uint64_t trace_digest = 0;
  std::uint64_t stats_digest = 0;
  telemetry::Registry::Snapshot snapshot;
};

CellResult run_cell(const asci::AppSpec& app, double scale, telemetry::Level level) {
  dynprof::Launch::Options options;
  options.app = &app;
  options.policy = dynprof::Policy::kDynamic;
  options.params.nprocs = 64;
  options.params.problem_scale = scale;
  options.telemetry_level = level;
  CellResult result;
  const double begin = cpu_seconds();
  {
    dynprof::PolicyRun run(std::move(options));
    const dynprof::PolicyResult r = run.run();
    result.trace_digest = r.trace_digest;
    result.stats_digest = r.stats_digest;
    result.snapshot = run.launch().telemetry_registry().snapshot();
  }
  result.cpu_s = cpu_seconds() - begin;
  return result;
}

/// Exact hook-operation counts for a run, from its own snapshot.  A
/// per-call counter's value IS its number of add() calls; the bulk-delta
/// counters (one add() carrying many units) are excluded and their call
/// sites counted separately; histogram observe() calls are the bucket
/// count totals.
struct HookOps {
  std::uint64_t adds = 0;
  std::uint64_t observes = 0;
};

HookOps count_hook_ops(const telemetry::Registry::Snapshot& snap) {
  HookOps ops;
  for (const auto& [name, value] : snap.counters) {
    // Bulk-delta call sites: sim.events and sim.inline_wakeups add once
    // per engine run, vt.spill_bytes once per spill run,
    // queue_compacted_entries once per compaction, vt.events_recorded and
    // vt.synthetic_pairs once per result collection -- each mirrored below.
    if (name == "sim.events" || name == "sim.inline_wakeups" || name == "vt.spill_bytes" ||
        name == "sim.queue_compacted_entries" || name == "vt.events_recorded" ||
        name == "vt.synthetic_pairs") {
      continue;
    }
    ops.adds += value;
  }
  ops.adds += 2 * 64;  // sim.events + sim.inline_wakeups: at most one each per engine run
  ops.adds += 2 * 2;  // vt.* bulk adds: the cell collects its result at most twice
  ops.adds += snap.counter_value("vt.spill_runs");     // vt.spill_bytes bulk adds
  ops.adds += snap.counter_value("sim.queue_compactions");
  for (const auto& hist : snap.histograms) ops.observes += hist.count;
  return ops;
}

struct BestOf {
  double best_s = 1e30;
  void add(double s) { best_s = s < best_s ? s : best_s; }
};

/// ns/op over `n` calls of `op`.  The registry ops are plain inline adds,
/// so the compiler barrier after each call keeps the optimiser from folding
/// the loop into one add (or hoisting the level check out of it): every
/// iteration re-reads the level and loads and stores its cell, as a hook
/// inside the simulator does.
template <typename Op>
double measure_ns_per_op(std::uint64_t n, Op&& op) {
  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    op(i);
    asm volatile("" ::: "memory");
  }
  return seconds_since(begin) * 1e9 / static_cast<double>(n);
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  double scale = 1.0;
  int reps = 7;
  std::string json_path = "BENCH_telemetry.json";
  std::string spans_path = "fig7a_spans.json";
  CliParser parser("micro_telemetry_overhead",
                   "Self-telemetry overhead on the fig7a Smg98/Dynamic/64 cell "
                   "(BENCH_telemetry.json; span artifact fig7a_spans.json)");
  parser.option_double("scale", "problem scale factor (default 1.0 = paper size; "
                       "small scales are noise-dominated)", &scale);
  parser.option_int("reps", "reps per config, best-of (default 7)", &reps);
  parser.option_string("json", "output artifact (default BENCH_telemetry.json)", &json_path);
  parser.option_string("spans-json",
                       "Chrome trace artifact from the adaptive spans run "
                       "(default fig7a_spans.json)",
                       &spans_path);
  if (!parser.parse(argc, argv)) return 0;

  const asci::AppSpec& app = asci::smg98();

  // --- Part 1: full-cell wall clock, off vs counters (interleaved) ---------
  std::puts("Part 1: fig7a cell (Smg98, Dynamic, 64 ranks), off vs counters\n");
  // Each rep times both configs adjacent in time, alternating order to
  // cancel cache-warming bias; the printed ratio is the median of the
  // per-rep ratios.  Informative only -- see the header for why a 1% bar
  // cannot be enforced from this comparison.
  BestOf off_best;
  BestOf counters_best;
  CellResult off_last;
  CellResult counters_last;
  std::vector<double> ratios;
  const auto sample = [&](telemetry::Level level, CellResult* last) {
    *last = run_cell(app, scale, level);
    return last->cpu_s;
  };
  for (int rep = 0; rep < reps; ++rep) {
    double off_s;
    double counters_s;
    if (rep % 2 == 0) {
      off_s = sample(telemetry::Level::kOff, &off_last);
      counters_s = sample(telemetry::Level::kCounters, &counters_last);
    } else {
      counters_s = sample(telemetry::Level::kCounters, &counters_last);
      off_s = sample(telemetry::Level::kOff, &off_last);
    }
    off_best.add(off_s);
    counters_best.add(counters_s);
    if (off_s > 0) ratios.push_back(counters_s / off_s);
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  std::sort(ratios.begin(), ratios.end());
  const double ab_ratio = ratios.empty() ? 1.0 : ratios[ratios.size() / 2];

  TextTable cell_table({"Config", "CPU (s)", "Overhead"});
  cell_table.add_row({"--telemetry=off", TextTable::num(off_best.best_s, 3), "--"});
  cell_table.add_row({"--telemetry=counters", TextTable::num(counters_best.best_s, 3),
                      TextTable::num((ab_ratio - 1.0) * 100.0, 2) + "%"});
  std::fputs(cell_table.render().c_str(), stdout);
  const std::uint64_t counted_events = counters_last.snapshot.counter_value("sim.events");
  std::printf("(median ratio over %d paired reps, informative; counters level "
              "recorded %llu sim events)\n",
              reps, static_cast<unsigned long long>(counted_events));

  // --- Part 2: raw per-op costs --------------------------------------------
  std::puts("\nPart 2: registry op costs (ns/op)\n");
  constexpr std::uint64_t kOps = std::uint64_t{1} << 22;
  telemetry::Registry off_reg(telemetry::Level::kOff);
  telemetry::Registry on_reg(telemetry::Level::kCounters);
  const telemetry::CounterId off_c = off_reg.counter("bench.counter");
  const telemetry::CounterId on_c = on_reg.counter("bench.counter");
  const telemetry::HistogramId on_h = on_reg.histogram("bench.histogram");
  const double gate_ns = measure_ns_per_op(kOps, [&](std::uint64_t) { off_reg.add(off_c); });
  const double add_ns = measure_ns_per_op(kOps, [&](std::uint64_t) { on_reg.add(on_c); });
  const double observe_ns =
      measure_ns_per_op(kOps, [&](std::uint64_t i) { on_reg.observe(on_h, i & 0xffff); });
  TextTable op_table({"Operation", "ns/op"});
  op_table.add_row({"counter add, level=off (the gate)", TextTable::num(gate_ns, 2)});
  op_table.add_row({"counter add, level=counters", TextTable::num(add_ns, 2)});
  op_table.add_row({"histogram observe, level=counters", TextTable::num(observe_ns, 2)});
  std::fputs(op_table.render().c_str(), stdout);

  // --- The enforced gate: (hook ops x ns/op) / run CPU < 1% ----------------
  const HookOps ops = count_hook_ops(counters_last.snapshot);
  const double hook_cpu_s = (static_cast<double>(ops.adds) * add_ns +
                             static_cast<double>(ops.observes) * observe_ns) * 1e-9;
  const double run_cpu_s = off_best.best_s;
  const double hook_ratio = run_cpu_s > 0 ? 1.0 + hook_cpu_s / run_cpu_s : 1.0;
  std::printf("\ncomputed counters overhead: %llu add(s) + %llu observe(s) = %.1f us "
              "over a %.3f s run (+%.4f%%)\n",
              static_cast<unsigned long long>(ops.adds),
              static_cast<unsigned long long>(ops.observes), hook_cpu_s * 1e6,
              run_cpu_s, (hook_ratio - 1.0) * 100.0);

  // --- Part 3: the Perfetto artifact (adaptive run at spans level) ---------
  std::puts("\nPart 3: span export from one adaptive run (confsync + reduce)\n");
  dynprof::Launch::Options adaptive;
  adaptive.app = &app;
  adaptive.policy = dynprof::Policy::kAdaptive;
  adaptive.params.nprocs = 64;
  adaptive.params.problem_scale = scale / 2;
  adaptive.telemetry_level = telemetry::Level::kSpans;
  dynprof::PolicyRun spans_cell(std::move(adaptive));
  const dynprof::PolicyResult spans_run = spans_cell.run();
  const telemetry::Registry& spans_registry = spans_cell.launch().telemetry_registry();
  const std::size_t span_events = spans_registry.span_event_count();
  {
    std::ofstream out(spans_path);
    out << spans_registry.chrome_trace_json();
  }
  std::printf("  %zu span event(s) from %llu confsync round(s) -> %s "
              "(load at https://ui.perfetto.dev)\n",
              span_events, static_cast<unsigned long long>(spans_run.confsyncs),
              spans_path.c_str());

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"fig7a_cell\": {\n"
               "    \"app\": \"smg98\", \"policy\": \"Dynamic\", \"nprocs\": 64,\n"
               "    \"scale\": %.4f, \"reps\": %d,\n"
               "    \"off_cpu_s\": %.4f,\n"
               "    \"counters_cpu_s\": %.4f,\n"
               "    \"ab_ratio_informative\": %.4f,\n"
               "    \"hook_adds\": %llu,\n"
               "    \"hook_observes\": %llu,\n"
               "    \"overhead_ratio\": %.6f,\n"
               "    \"counted_events\": %llu\n"
               "  },\n"
               "  \"op_costs_ns\": {\n"
               "    \"counter_add_off\": %.2f,\n"
               "    \"counter_add_counters\": %.2f,\n"
               "    \"histogram_observe\": %.2f\n"
               "  },\n"
               "  \"spans_run\": {\"span_events\": %zu, \"confsyncs\": %llu, "
               "\"artifact\": \"%s\"}\n"
               "}\n",
               scale, reps, off_best.best_s,
               counters_best.best_s, ab_ratio, static_cast<unsigned long long>(ops.adds),
               static_cast<unsigned long long>(ops.observes), hook_ratio,
               static_cast<unsigned long long>(counted_events), gate_ns, add_ns,
               observe_ns, span_events,
               static_cast<unsigned long long>(spans_run.confsyncs), spans_path.c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  checks.push_back({"--telemetry=counters costs < 1% of fig7a cell CPU (ops x ns/op)",
                    hook_ratio < 1.01});
  checks.push_back({"telemetry level does not perturb the simulation (digests identical)",
                    off_last.trace_digest == counters_last.trace_digest &&
                        off_last.stats_digest == counters_last.stats_digest});
  checks.push_back({"counters level observed the run (sim.events > 0)",
                    counted_events > 0});
  checks.push_back({"spans artifact records confsync rounds",
                    span_events > 0 && spans_run.confsyncs > 0});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
