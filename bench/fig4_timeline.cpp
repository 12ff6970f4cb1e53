// Reproduces paper Figure 4: "VGV time-line display of sweep3d using
// 8 MPI processes x 4 OpenMP threads."
//
// The VGV GUI is replaced by the text time-line renderer: one row per MPI
// process, cells classified as compute ('='), MPI ('M'), or OpenMP
// parallel-region activity ('o' -- the paper's "wiggle glyph").  The run
// itself is the mixed-mode sweep3d under dynprof's Dynamic policy, i.e. the
// exact tool pipeline the screenshot came from.
#include <cstdio>

#include "analysis/report.hpp"
#include "analysis/timeline.hpp"
#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  double scale = 0.4;
  CliParser parser("fig4_timeline", "Reproduce Figure 4 (mixed-mode time-line)");
  parser.option_double("scale", "problem scale factor", &scale);
  if (!parser.parse(argc, argv)) return 0;

  dynprof::Launch::Options options;
  options.app = &asci::sweep3d_hybrid();
  options.params.nprocs = 8;           // 8 MPI processes...
  options.params.threads_per_rank = 4; // ...x 4 OpenMP threads
  options.params.problem_scale = scale;
  options.policy = dynprof::Policy::kDynamic;
  dynprof::PolicyRun run(std::move(options));
  run.run();
  dynprof::Launch& launch = run.launch();

  std::puts("Figure 4: VGV time-line display of sweep3d, 8 MPI x 4 OpenMP\n");
  const std::string timeline = analysis::render_timeline(*launch.trace());
  std::fputs(timeline.c_str(), stdout);
  std::printf("\n%s\n",
              analysis::summary_report(*launch.trace(),
                                       asci::sweep3d_hybrid().symbols.get(), 6)
                  .c_str());

  // Shape checks: the display shows 8 process bars carrying MPI, OpenMP
  // ("wiggle") and compute activity.
  int rows = 0;
  for (const char c : timeline) rows += (c == '\n');
  std::vector<ShapeCheck> checks;
  checks.push_back({"8 process rows in the display", rows == 9});  // header + 8 bars
  checks.push_back({"MPI activity shown ('M')", timeline.find('M') != std::string::npos});
  checks.push_back({"OpenMP regions shown ('o', the wiggle glyph)",
                    timeline.find('o') != std::string::npos});
  checks.push_back({"compute shown ('=')", timeline.find('=') != std::string::npos});
  const auto matrix = analysis::communication_matrix(*launch.trace());
  checks.push_back({"pipeline neighbours exchanged data", matrix.total() > 0});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
