// No-fault hot-path cost of the fault harness (DESIGN.md §9).
//
// The fault harness touches two per-event paths: the VT_begin/VT_end
// filter check and the trace-shard append.  Neither consults the injector
// -- the only addition is the spill_fault hook on ShardOptions, which every
// Launch installs (over the empty plan when there is none) and which a
// shard calls once per spilled run, never per event.  This bench runs the
// filter-check + append loop with such a hook installed, once against an
// in-memory shard and once against a spilling one (CRC-checked delta
// blocks), counts the hook's calls, and emits BENCH_fault.json.  Shape
// checks are exact: the hook is called 0 times over the in-memory loop and
// once per spilled run over the spill loop.  Events/s are informative.
#include <algorithm>
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

/// One rep of the per-event hot path: filter lookup, then a shard append
/// for every active function.  Returns the rep's wall seconds.
double hot_rep(const vt::FilterTable& table, const vt::ShardOptions& options,
               int nsyms, std::uint64_t events, HotRate* rate, std::size_t* spill_runs) {
  vt::TraceShard shard(0, options);
  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < events; ++i) {
    const auto fn = static_cast<image::FunctionId>(i % static_cast<std::uint64_t>(nsyms));
    if (table.deactivated(fn)) continue;
    shard.append(make_event(static_cast<sim::TimeNs>(i), static_cast<std::int32_t>(fn)));
    ++rate->recorded;
  }
  const double seconds = seconds_since(begin);
  *spill_runs += shard.spill_runs();
  return seconds;
}

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
  parser.option_int("reps", "in-memory reps, best-of (default 9)", &reps);
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

  // The hook a Launch installs: healthy (every byte reaches the disk), and
  // counted here.
  std::uint64_t hook_calls = 0;
  auto counting_hook = [&hook_calls](std::int32_t, std::uint64_t, std::size_t bytes) {
    ++hook_calls;
    return bytes;
  };
  vt::ShardOptions in_memory;
  in_memory.spill_fault = counting_hook;
  vt::ShardOptions spilling;
  spilling.spill_budget_bytes = std::size_t{1} << 16;  // 2048-record runs
  spilling.spill_fault = counting_hook;
  const auto n = static_cast<std::uint64_t>(events);

  // --- Part 1: filter check + in-memory append -----------------------------
  HotRate memory_rate;
  std::size_t memory_runs = 0;
  double memory_best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    memory_best = std::min(memory_best,
                           hot_rep(table, in_memory, kSyms, n, &memory_rate, &memory_runs));
  }
  const std::uint64_t memory_hook_calls = hook_calls;
  memory_rate.events_per_s = static_cast<double>(n) / memory_best;

  // --- Part 2: the spill path ----------------------------------------------
  hook_calls = 0;
  HotRate spill_rate;
  std::size_t spill_runs = 0;
  const double spill_s = hot_rep(table, spilling, kSyms, n, &spill_rate, &spill_runs);
  const std::uint64_t spill_hook_calls = hook_calls;
  spill_rate.events_per_s = static_cast<double>(n) / spill_s;

  std::puts("Filter-check + shard-append hot path with the Launch's spill_fault hook\n");
  TextTable hot_table({"Shard", "Events/s", "Spilled runs", "Hook calls"});
  hot_table.add_row({"in memory (best of " + std::to_string(reps) + ")",
                     TextTable::num(memory_rate.events_per_s, 0), std::to_string(memory_runs),
                     std::to_string(memory_hook_calls)});
  hot_table.add_row({"spilling, " + std::to_string(spilling.spill_budget_bytes) + "-byte budget",
                     TextTable::num(spill_rate.events_per_s, 0), std::to_string(spill_runs),
                     std::to_string(spill_hook_calls)});
  std::fputs(hot_table.render().c_str(), stdout);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"hot_path\": {\n"
               "    \"events_per_rep\": %llu,\n"
               "    \"in_memory_eps\": %.0f,\n"
               "    \"hook_calls\": %llu,\n"
               "    \"recorded\": %llu\n"
               "  },\n"
               "  \"spill_path\": {\"events_per_s\": %.0f, \"budget_bytes\": %zu, "
               "\"spilled_runs\": %zu, \"hook_calls\": %llu}\n"
               "}\n",
               static_cast<unsigned long long>(n), memory_rate.events_per_s,
               static_cast<unsigned long long>(memory_hook_calls),
               static_cast<unsigned long long>(memory_rate.recorded + spill_rate.recorded),
               spill_rate.events_per_s, spilling.spill_budget_bytes, spill_runs,
               static_cast<unsigned long long>(spill_hook_calls));
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  checks.push_back({"the spill_fault hook is never called over the in-memory loop",
                    memory_hook_calls == 0 && memory_runs == 0});
  checks.push_back({"the spill_fault hook is called once per spilled run",
                    spill_runs > 0 && spill_hook_calls == spill_runs});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
