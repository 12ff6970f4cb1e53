// Reproduces paper Figure 7(c): execution time of the instrumented
// versions of Sweep3d on 2-64 CPUs.
//
// Paper shapes: "The Full and None instrumentation policies of Sweep3d
// have comparable performance" -- all policies indistinguishable (no
// Subset version was run); strong scaling (time decreases with CPUs).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;
  using dynprof::Policy;

  Fig7Options options;
  if (!parse_fig7_options(argc, argv, "fig7c_sweep3d", "Reproduce Figure 7(c)", &options)) {
    return 0;
  }

  const auto sweep = run_policy_sweep(asci::sweep3d(), options.scale,
                                      static_cast<std::uint64_t>(options.seed),
                                      static_cast<int>(options.max_cpus));
  print_sweep("Figure 7(c): Sweep3d execution time (s)", sweep);
  maybe_print_csv(sweep, options.csv);

  const double full2 = sweep.at(Policy::kFull, 2);
  const double none2 = sweep.at(Policy::kNone, 2);
  const double full64 = sweep.at(Policy::kFull, 64);
  const double none64 = sweep.at(Policy::kNone, 64);
  const double dynamic64 = sweep.at(Policy::kDynamic, 64);

  std::printf("\nFull/None at 2 CPUs: %.3fx, at 64 CPUs: %.3fx (paper: negligible)\n",
              full2 / none2, full64 / none64);

  std::vector<ShapeCheck> checks;
  checks.push_back({"Full ~= None at 2 CPUs (within 3%)",
                    std::abs(full2 / none2 - 1.0) < 0.03});
  checks.push_back({"Full ~= None at 64 CPUs (within 5%)",
                    std::abs(full64 / none64 - 1.0) < 0.05});
  checks.push_back({"Dynamic ~= None at 64 CPUs (within 5%)",
                    std::abs(dynamic64 / none64 - 1.0) < 0.05});
  checks.push_back({"strong scaling: time decreases with CPUs", none64 < 0.25 * none2});
  return report_checks(checks);
}
