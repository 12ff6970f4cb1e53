// No-fault hot-path overhead of the fault harness (DESIGN.md §9).
//
// The fault PR touches two per-event paths: the VT_begin/VT_end filter
// check and the trace-shard append.  Neither consults the injector -- the
// only addition is the spill_fault hook on ShardOptions, which a Launch
// installs over the empty plan when there is none -- so a run without a
// fault plan must cost what it cost before the harness existed.  This
// bench measures the combined filter-check + in-memory-append loop with the
// hook absent vs present-but-idle, plus the spill path (CRC-checked delta
// blocks), and emits BENCH_fault.json.  Shape check: the
// idle hook costs < 2% (the acceptance bar for the no-fault hot path).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "support/rng.hpp"
#include "vt/filter.hpp"
#include "vt/trace_shard.hpp"

namespace {

using namespace dyntrace;

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

vt::Event make_event(sim::TimeNs time, std::int32_t code) {
  vt::Event e;
  e.time = time;
  e.pid = 0;
  e.kind = vt::EventKind::kEnter;
  e.code = code;
  return e;
}

struct HotRate {
  double events_per_s = 0;
  std::uint64_t recorded = 0;  ///< folded into the JSON so work cannot be elided
};

/// One rep of the per-event hot path: filter lookup, then an in-memory
/// shard append for every active function.  `options` is what the fault
/// harness can change; everything else is identical between configs.
double hot_rep(const vt::FilterTable& table, const vt::ShardOptions& options,
               int nsyms, std::uint64_t events, HotRate* rate) {
  vt::TraceShard shard(0, options);
  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < events; ++i) {
    const auto fn = static_cast<image::FunctionId>(i % static_cast<std::uint64_t>(nsyms));
    if (table.deactivated(fn)) continue;
    shard.append(make_event(static_cast<sim::TimeNs>(i), static_cast<std::int32_t>(fn)));
    ++rate->recorded;
  }
  return seconds_since(begin);
}

/// Best-of-`reps` events/s; reps of the two configs are interleaved by the
/// caller so thermal drift hits both equally.
struct BestOf {
  double best_s = 1e30;
  void add(double s) { best_s = s < best_s ? s : best_s; }
};

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  std::int64_t events = 1 << 20;
  int reps = 9;
  std::string json_path = "BENCH_fault.json";
  CliParser parser("micro_fault_overhead",
                   "No-fault hot-path overhead of the fault harness (BENCH_fault.json)");
  parser.option_int("events", "filter+append events per rep (default 1048576)", &events);
  parser.option_int("reps", "reps per config, best-of (default 9)", &reps);
  parser.option_string("json", "output artifact (default BENCH_fault.json)", &json_path);
  if (!parser.parse(argc, argv)) return 0;

  // A realistic filter: ~1/3 of the symbol table deactivated, so the loop
  // exercises both the early-out and the append.
  constexpr int kSyms = 96;
  image::SymbolTable symbols;
  for (int i = 0; i < kSyms; ++i) {
    symbols.add((i % 3 == 0 ? "hypre_fn_" : "app_fn_") + std::to_string(i));
  }
  vt::FilterTable table(symbols, {{false, "hypre_*"}});

  const vt::ShardOptions plain;  // what a run without the harness would use
  vt::ShardOptions hooked;       // hook installed but never consulted
  hooked.spill_fault = [](std::int32_t, std::uint64_t, std::size_t bytes) { return bytes; };

  // --- Part 1: filter check + in-memory append, hook absent vs idle -------
  std::puts("Part 1: filter-check + shard-append hot path (events/s)\n");
  HotRate plain_rate;
  HotRate hooked_rate;
  BestOf plain_best;
  BestOf hooked_best;
  const auto n = static_cast<std::uint64_t>(events);
  for (int rep = 0; rep < reps; ++rep) {
    plain_best.add(hot_rep(table, plain, kSyms, n, &plain_rate));
    hooked_best.add(hot_rep(table, hooked, kSyms, n, &hooked_rate));
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  plain_rate.events_per_s = static_cast<double>(n) / plain_best.best_s;
  hooked_rate.events_per_s = static_cast<double>(n) / hooked_best.best_s;
  const double ratio = plain_best.best_s > 0 ? hooked_best.best_s / plain_best.best_s : 1.0;

  TextTable hot_table({"Config", "Events/s", "Overhead"});
  hot_table.add_row({"no fault harness", TextTable::num(plain_rate.events_per_s, 0), "--"});
  hot_table.add_row({"idle spill_fault hook", TextTable::num(hooked_rate.events_per_s, 0),
                     TextTable::num((ratio - 1.0) * 100.0, 2) + "%"});
  std::fputs(hot_table.render().c_str(), stdout);

  // --- Part 2: the spill path (informative) --------------------------------
  std::puts("\nPart 2: spill path with CRC32-checked blocks (events/s through spills)\n");
  vt::ShardOptions spilling;
  spilling.spill_budget_bytes = std::size_t{1} << 16;  // 2048-record runs

  double spill_s;
  {
    HotRate spill_rate;
    spill_s = hot_rep(table, spilling, kSyms, n, &spill_rate);
  }
  const double spill_eps = static_cast<double>(n) / spill_s;
  std::printf("  %.0f events/s (sort + encode + fsync + rename per %zu-byte run)\n",
              spill_eps, spilling.spill_budget_bytes);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"hot_path\": {\n"
               "    \"events_per_rep\": %llu,\n"
               "    \"plain_eps\": %.0f,\n"
               "    \"idle_hook_eps\": %.0f,\n"
               "    \"overhead_ratio\": %.4f,\n"
               "    \"recorded\": %llu\n"
               "  },\n"
               "  \"spill_path\": {\"events_per_s\": %.0f, \"budget_bytes\": %zu}\n"
               "}\n",
               static_cast<unsigned long long>(n), plain_rate.events_per_s,
               hooked_rate.events_per_s, ratio,
               static_cast<unsigned long long>(plain_rate.recorded + hooked_rate.recorded),
               spill_eps, spilling.spill_budget_bytes);
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  checks.push_back({"idle fault hook costs < 2% on the filter+append hot path",
                    ratio < 1.02});
  checks.push_back({"both configs recorded the same events",
                    plain_rate.recorded == hooked_rate.recorded});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
