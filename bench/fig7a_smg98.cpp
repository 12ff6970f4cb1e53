// Reproduces paper Figure 7(a): execution time of the instrumented
// versions of Smg98 on 1-64 CPUs under the five policies of Table 3.
//
// Paper shapes checked: Full/None > 7 at 64 CPUs; Full-Off ~= Subset;
// Dynamic within a few percent of None; weak scaling (time grows with P).
#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;
  using dynprof::Policy;

  Fig7Options options;
  if (!parse_fig7_options(argc, argv, "fig7a_smg98", "Reproduce Figure 7(a)", &options)) {
    return 0;
  }

  const auto sweep = run_policy_sweep(asci::smg98(), options.scale,
                                      static_cast<std::uint64_t>(options.seed),
                                      options.max_cpus);
  print_sweep("Figure 7(a): Smg98 execution time (s)", sweep);
  maybe_print_csv(sweep, options.csv);

  const double full64 = sweep.at(Policy::kFull, 64);
  const double none64 = sweep.at(Policy::kNone, 64);
  const double off64 = sweep.at(Policy::kFullOff, 64);
  const double subset64 = sweep.at(Policy::kSubset, 64);
  const double dynamic64 = sweep.at(Policy::kDynamic, 64);
  const double none1 = sweep.at(Policy::kNone, 1);

  std::printf("\nFull/None at 64 CPUs: %.2fx (paper: \"over 7 times slower\")\n",
              full64 / none64);

  std::vector<ShapeCheck> checks;
  checks.push_back({"Full > 7x None at 64 CPUs", full64 / none64 > 7.0});
  checks.push_back({"Full-Off ~= Subset (within 10%)",
                    std::abs(off64 / subset64 - 1.0) < 0.10});
  checks.push_back({"Full-Off well below Full", off64 < 0.5 * full64});
  checks.push_back({"Full-Off clearly above None", off64 > 1.2 * none64});
  checks.push_back({"Dynamic within 5% of None", std::abs(dynamic64 / none64 - 1.0) < 0.05});
  checks.push_back({"weak scaling: time grows with CPUs", none64 > none1});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
