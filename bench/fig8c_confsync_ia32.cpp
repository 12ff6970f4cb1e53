// Reproduces paper Figure 8(c): time for VT_confsync (no changes) on the
// 16-node IA32 Linux cluster, 2-16 processes.
//
// Paper shapes: same qualitative behaviour as the IBM SP -- "the
// synchronization API has similar behavior between two different processor
// architectures" -- with all points < 0.006 s.
#include <cstdio>

#include "bench_common.hpp"
#include "dynprof/confsync_experiment.hpp"

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  int reps = 16;
  CliParser parser("fig8c_confsync_ia32", "Reproduce Figure 8(c)");
  parser.option_int("reps", "repetitions per data point (paper: 16)", &reps);
  if (!parser.parse(argc, argv)) return 0;

  std::puts("Figure 8(c): VT_confsync cost on the IA32 Linux cluster (s)\n");
  TextTable table({"Processors", "No Change"});
  std::vector<double> costs;
  std::vector<int> procs;
  for (int p = 2; p <= 16; ++p) procs.push_back(p);
  for (const int p : procs) {
    dynprof::ConfsyncExperimentConfig config;
    config.nprocs = p;
    config.machine = machine::ia32_linux_cluster();
    config.repetitions = reps;
    costs.push_back(run_confsync_experiment(config).mean_seconds);
    table.add_row({std::to_string(p), TextTable::num(costs.back(), 6)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::vector<ShapeCheck> checks;
  bool all_small = true;
  for (const double c : costs) all_small = all_small && c < 0.006;
  checks.push_back({"all points < 0.006 s (paper's y-axis ceiling)", all_small});
  checks.push_back({"insignificant growth with processors (< 4x from 2 to 16)",
                    costs.back() < 4 * costs.front()});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
