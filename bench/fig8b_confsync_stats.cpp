// Reproduces paper Figure 8(b): time for VT_confsync when also writing
// runtime statistics (IBM SP, 2-512 processes) -- plus the control plane's
// k-ary aggregation overlay on the same experiment, which replaces the
// linear gather-to-rank-0 with interior-rank merging.
//
// Paper shapes: an order of magnitude larger than 8(a), but still
// negligible against user-interaction time (< ~0.3 s at 512).  Overlay
// shape: beats the linear gather at 512 processes (the root no longer
// writes P tables).
#include <cstdio>

#include "bench_common.hpp"
#include "dynprof/confsync_experiment.hpp"

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  int reps = 16;
  int arity = 4;
  CliParser parser("fig8b_confsync_stats", "Reproduce Figure 8(b)");
  parser.option_int("reps", "repetitions per data point (paper: 16)", &reps);
  parser.option_int("arity", "aggregation overlay arity (default 4)", &arity);
  if (!parser.parse(argc, argv)) return 0;

  std::puts("Figure 8(b): VT_confsync cost when writing statistics, IBM SP (s)\n");
  TextTable table({"Processors", "No Change", "Tree k=" + std::to_string(arity),
                   "(plain 8a)"});
  std::vector<double> stats, tree, plain;
  const std::vector<int> procs{2, 4, 8, 16, 32, 64, 128, 256, 512};
  for (const int p : procs) {
    dynprof::ConfsyncExperimentConfig config;
    config.nprocs = p;
    config.machine = machine::ibm_power3_sp();
    config.repetitions = reps;
    config.write_statistics = true;
    stats.push_back(run_confsync_experiment(config).mean_seconds);
    config.tree_arity = arity;
    tree.push_back(run_confsync_experiment(config).mean_seconds);
    config.tree_arity = 0;
    config.write_statistics = false;
    plain.push_back(run_confsync_experiment(config).mean_seconds);
    table.add_row({std::to_string(p), TextTable::num(stats.back(), 6),
                   TextTable::num(tree.back(), 6), TextTable::num(plain.back(), 6)});
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nstats/plain ratio at 512 procs: %.1fx (paper: \"an order of magnitude\")\n",
              stats.back() / plain.back());
  std::printf("linear/tree ratio at 512 procs: %.1fx\n", stats.back() / tree.back());

  std::vector<ShapeCheck> checks;
  checks.push_back({"order of magnitude above 8(a) at 512 procs (>5x)",
                    stats.back() > 5 * plain.back()});
  checks.push_back({"still negligible vs user interaction (< 0.4 s everywhere)",
                    stats.back() < 0.4});
  checks.push_back({"cost grows with processors", stats.back() > stats.front()});
  checks.push_back({"tree overlay beats the linear gather at 512 procs",
                    tree.back() < stats.back()});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
