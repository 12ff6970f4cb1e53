// Reproduces paper Figure 7(b): execution time of the instrumented
// versions of Sppm on 1-64 CPUs.
//
// Paper shapes: Full clearly slower than the rest "although the difference
// is not as extreme" as Smg98; Full-Off ~= Subset; Dynamic ~= None.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;
  using dynprof::Policy;

  Fig7Options options;
  if (!parse_fig7_options(argc, argv, "fig7b_sppm", "Reproduce Figure 7(b)", &options)) {
    return 0;
  }

  const auto sweep = run_policy_sweep(asci::sppm(), options.scale,
                                      static_cast<std::uint64_t>(options.seed),
                                      static_cast<int>(options.max_cpus));
  print_sweep("Figure 7(b): Sppm execution time (s)", sweep);
  maybe_print_csv(sweep, options.csv);

  const double full64 = sweep.at(Policy::kFull, 64);
  const double none64 = sweep.at(Policy::kNone, 64);
  const double off64 = sweep.at(Policy::kFullOff, 64);
  const double subset64 = sweep.at(Policy::kSubset, 64);
  const double dynamic64 = sweep.at(Policy::kDynamic, 64);

  std::printf("\nFull/None at 64 CPUs: %.2fx (paper: clear but not extreme)\n",
              full64 / none64);

  std::vector<ShapeCheck> checks;
  checks.push_back({"Full slower than None (>15%)", full64 > 1.15 * none64});
  checks.push_back({"less extreme than Smg98 (< 4x)", full64 / none64 < 4.0});
  checks.push_back({"Full-Off ~= Subset (within 10%)",
                    std::abs(off64 / subset64 - 1.0) < 0.10});
  checks.push_back({"Dynamic within 5% of None", std::abs(dynamic64 / none64 - 1.0) < 0.05});
  checks.push_back({"Dynamic below Full-Off", dynamic64 < off64});
  return report_checks(checks);
}
