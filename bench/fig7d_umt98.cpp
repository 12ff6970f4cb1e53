// Reproduces paper Figure 7(d): execution time of the instrumented
// versions of Umt98 (OpenMP) on 1-8 processors of one SMP node.
//
// Paper shapes: re-confirms Smg98/Sppm orderings with milder variations
// ("not as significant"), still "a noticeable benefit from dynamic
// instrumentation over the static alternatives"; strong scaling.
#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;
  using dynprof::Policy;

  Fig7Options options;
  if (!parse_fig7_options(argc, argv, "fig7d_umt98", "Reproduce Figure 7(d)", &options)) {
    return 0;
  }

  const auto sweep = run_policy_sweep(asci::umt98(), options.scale,
                                      static_cast<std::uint64_t>(options.seed),
                                      options.max_cpus);
  print_sweep("Figure 7(d): Umt98 execution time (s)", sweep);
  maybe_print_csv(sweep, options.csv);

  const double full1 = sweep.at(Policy::kFull, 1);
  const double none1 = sweep.at(Policy::kNone, 1);
  const double full8 = sweep.at(Policy::kFull, 8);
  const double none8 = sweep.at(Policy::kNone, 8);
  const double off8 = sweep.at(Policy::kFullOff, 8);
  const double subset8 = sweep.at(Policy::kSubset, 8);
  const double dynamic8 = sweep.at(Policy::kDynamic, 8);

  std::printf("\nFull/None at 1 CPU: %.3fx, at 8 CPUs: %.3fx (paper: noticeable, mild)\n",
              full1 / none1, full8 / none8);

  std::vector<ShapeCheck> checks;
  checks.push_back({"Full noticeably above None at 1 CPU (3%-60%)",
                    full1 > 1.03 * none1 && full1 < 1.6 * none1});
  checks.push_back({"variations milder than Smg98 (< 2x)", full8 / none8 < 2.0});
  checks.push_back({"Full-Off ~= Subset (within 10%)",
                    std::abs(off8 / subset8 - 1.0) < 0.10});
  checks.push_back({"Dynamic at or below Subset", dynamic8 <= subset8 * 1.02});
  checks.push_back({"Dynamic within 5% of None", std::abs(dynamic8 / none8 - 1.0) < 0.05});
  checks.push_back({"strong scaling: time decreases with CPUs", none8 < 0.3 * none1});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
