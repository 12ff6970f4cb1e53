// Reproduces paper Figure 9: "Time to create and instrument" -- the wall
// time dynprof spends creating each ASCI application through POE,
// connecting DPCL, and installing the dynamic instrumentation, across CPU
// counts.
//
// Paper shapes: the three MPI applications grow with process count and
// show similar trends (one image per process must be attached and
// patched); Umt98 is flat (a single image shared by all OpenMP threads).
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"

namespace {

double instrument_time(const dyntrace::asci::AppSpec& app, int nprocs, double scale) {
  using namespace dyntrace;
  dynprof::Launch::Options options;
  options.app = &app;
  options.policy = dynprof::Policy::kDynamic;
  options.params.nprocs = nprocs;
  options.params.problem_scale = scale;
  return dynprof::run_policy(std::move(options)).create_instrument_seconds;
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  double scale = 0.3;  // the app body's size does not affect this metric
  int max_cpus = 0;
  CliParser parser("fig9_instrument_time", "Reproduce Figure 9");
  parser.option_double("scale", "application problem scale (metric-neutral)", &scale);
  parser.option_int("max-cpus",
                    "extend the MPI columns past the paper's 64-CPU ceiling to this "
                    "power of two >= 128 (e.g. 4096; 0 = paper counts only)",
                    &max_cpus);
  if (!parser.parse(argc, argv)) return 0;
  check_max_cpus(max_cpus);

  std::puts("Figure 9: Time to create and instrument (s)\n");
  std::vector<int> cpus{1, 2, 4, 8, 16, 32, 64};
  for (std::int64_t p = 128; p <= max_cpus; p *= 2) cpus.push_back(static_cast<int>(p));
  TextTable table({"CPUs", "Smg98", "Sppm", "Sweep3d", "Umt98"});

  std::vector<std::vector<double>> results(4);
  for (const int p : cpus) {
    std::vector<std::string> row{std::to_string(p)};
    int col = 0;
    for (const asci::AppSpec* app :
         {&asci::smg98(), &asci::sppm(), &asci::sweep3d(), &asci::umt98()}) {
      // Columns past the paper's ceiling run only for the MPI apps (the
      // --max-cpus extension); an OpenMP app stays within one node.
      const bool beyond_paper =
          p > app->max_procs && app->model == asci::AppSpec::Model::kOpenMP;
      if (p < app->min_procs || beyond_paper) {
        row.emplace_back("-");
        results[col].push_back(std::nan(""));
      } else {
        const double t = instrument_time(*app, p, scale);
        results[col].push_back(t);
        row.push_back(TextTable::num(t, 1));
      }
      ++col;
      std::fprintf(stderr, ".");
      std::fflush(stderr);
    }
    table.add_row(std::move(row));
  }
  std::fprintf(stderr, "\n");
  std::fputs(table.render().c_str(), stdout);

  // Shape checks: results[0]=smg98, [1]=sppm, [2]=sweep3d, [3]=umt98;
  // index i corresponds to cpus[i].
  const double smg_1 = results[0][0], smg_64 = results[0][6];
  const double sppm_64 = results[1][6];
  const double sweep_64 = results[2][6];
  const double umt_1 = results[3][0], umt_8 = results[3][3];

  std::vector<ShapeCheck> checks;
  checks.push_back({"MPI apps grow strongly with process count (Smg98 64 > 3x 1)",
                    smg_64 > 3 * smg_1});
  checks.push_back({"MPI apps show similar trends (within 1.6x of each other at 64)",
                    std::max({smg_64, sppm_64, sweep_64}) <
                        1.6 * std::min({smg_64, sppm_64, sweep_64})});
  checks.push_back({"Smg98 highest at 64 (most functions to patch)",
                    smg_64 >= sppm_64 && smg_64 >= sweep_64});
  checks.push_back({"Umt98 flat across 1-8 CPUs (single shared image, within 15%)",
                    std::abs(umt_8 / umt_1 - 1.0) < 0.15});
  checks.push_back({"times are large (tens of seconds at 64 CPUs)", smg_64 > 30});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
