// Reproduces paper Figure 8(a): time for VT_confsync on the IBM SP, with
// and without configuration changes, 2-512 processes, each point the
// average over 16 runs.
//
// Paper shapes: both curves < 0.04 s everywhere; making changes costs
// slightly more than not; growth with P is gentle (tree collectives).
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "dynprof/confsync_experiment.hpp"

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  int reps = 16;
  CliParser parser("fig8a_confsync_ibm", "Reproduce Figure 8(a)");
  parser.option_int("reps", "repetitions per data point (paper: 16)", &reps);
  if (!parser.parse(argc, argv)) return 0;

  std::puts("Figure 8(a): VT_confsync cost on the IBM SP (s)\n");
  TextTable table({"Processors", "No Change", "Changes"});
  std::vector<double> no_change, changes;
  const std::vector<int> procs{2, 4, 8, 16, 32, 64, 128, 256, 512};
  for (const int p : procs) {
    dynprof::ConfsyncExperimentConfig config;
    config.nprocs = p;
    config.machine = machine::ibm_power3_sp();
    config.repetitions = reps;
    config.with_changes = false;
    no_change.push_back(run_confsync_experiment(config).mean_seconds);
    config.with_changes = true;
    changes.push_back(run_confsync_experiment(config).mean_seconds);
    table.add_row({std::to_string(p), TextTable::num(no_change.back(), 6),
                   TextTable::num(changes.back(), 6)});
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  std::fputs(table.render().c_str(), stdout);

  std::vector<ShapeCheck> checks;
  bool all_small = true, changes_ge = true;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    all_small = all_small && no_change[i] < 0.04 && changes[i] < 0.04;
    changes_ge = changes_ge && changes[i] >= no_change[i] * 0.98;
  }
  checks.push_back({"all points < 0.04 s (paper: \"overhead is less than 0.04 seconds\")",
                    all_small});
  checks.push_back({"changes cost at least as much as no-change", changes_ge});
  checks.push_back({"growth 2->512 procs is sub-linear (< 32x for 256x procs)",
                    no_change.back() < 32 * no_change.front()});
  checks.push_back({"cost grows with processors", no_change.back() > no_change.front()});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
