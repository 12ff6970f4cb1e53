// Ablation 3 (DESIGN.md §10): base + mini-trampoline chains vs one merged
// trampoline.
//
// DPCL/Dyninst chain one mini-trampoline per instrumentation request so
// requests can be added and removed independently; a merged trampoline
// would re-generate one block per probe point.  The chain costs one extra
// dispatch jump per mini.  This ablation quantifies that price at the
// probe-execution level: k independent snippets installed as k minis vs
// the same snippets merged into one sequence.
#include <cstdio>

#include "bench_common.hpp"
#include "machine/cluster.hpp"
#include "proc/process.hpp"

namespace {

using namespace dyntrace;

/// Virtual time for `calls` executions of a function carrying `k` no-cost
/// snippets, installed either chained or merged.
sim::TimeNs run_variant(int k, bool merged, int calls) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("f");
  proc::SimProcess process(cluster, 0, 0, 0, image::ProgramImage(symbols));
  process.registry().register_function(
      "nop", [](proc::SimThread&, proc::LibraryRegistry::Args) -> sim::Coro<void> {
        co_return;
      });

  if (merged) {
    std::vector<image::SnippetPtr> parts;
    for (int i = 0; i < k; ++i) parts.push_back(image::snippet::call("nop"));
    process.image().install_probe(0, image::ProbeWhere::kEntry,
                                  image::snippet::seq(std::move(parts)));
  } else {
    for (int i = 0; i < k; ++i) {
      process.image().install_probe(0, image::ProbeWhere::kEntry,
                                    image::snippet::call("nop"));
    }
  }

  engine.spawn(
      [](proc::SimThread& t, int n) -> sim::Coro<void> {
        for (int i = 0; i < n; ++i) co_await t.call_function(0, nullptr);
      }(process.main_thread(), calls),
      "caller");
  engine.run();
  return engine.now();
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace dyntrace::bench;

  dyntrace::CliParser parser("ablation_trampoline", "mini-trampoline chain vs merged block");
  if (!parser.parse(argc, argv)) return 0;

  constexpr int kCalls = 10000;
  std::puts("Ablation: probe dispatch cost, chained minis vs merged block");
  std::printf("(%d probe executions; virtual microseconds)\n\n", kCalls);
  dyntrace::TextTable table({"snippets", "chained (us)", "merged (us)", "chain overhead"});

  std::vector<double> overheads;
  for (const int k : {1, 2, 4, 8}) {
    const auto chained = run_variant(k, false, kCalls);
    const auto merged = run_variant(k, true, kCalls);
    const double over = sim::to_microseconds(chained - merged);
    overheads.push_back(over);
    table.add_row({std::to_string(k), dyntrace::TextTable::num(sim::to_microseconds(chained), 1),
                   dyntrace::TextTable::num(sim::to_microseconds(merged), 1),
                   dyntrace::TextTable::num(over, 1)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::vector<ShapeCheck> checks;
  checks.push_back({"one snippet: chained == merged (single dispatch either way)",
                    overheads[0] == 0.0});
  checks.push_back({"chain overhead grows with the number of minis",
                    overheads[3] > overheads[1] && overheads[1] > overheads[0]});
  // With empty snippets the chain dispatch is the only variable cost; even
  // so it stays under half of the total probe traversal (register
  // save/restore and the patched jumps dominate).  Real snippets (VT calls
  // at ~1.5 us each) make it proportionally negligible.
  checks.push_back(
      {"chain overhead below half the total traversal even for empty snippets",
       overheads[3] < 0.5 * sim::to_microseconds(run_variant(8, false, kCalls))});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
