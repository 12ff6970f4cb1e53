// Ablation 1 (DESIGN.md §10): the deactivated-probe lookup cost.
//
// The whole gap between Full-Off/Subset and Dynamic/None rests on the
// filter-table lookup every deactivated VT_begin/VT_end still performs.
// Sweep that single cost parameter and watch the Full-Off curve move while
// None and Dynamic stay put -- at lookup cost 0, Full-Off collapses onto
// None and dynamic control of instrumentation would be as good as dynamic
// instrumentation (the paper's §6 hybrid argument in one table).
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;
  using dynprof::Policy;

  double scale = 0.5;
  CliParser parser("ablation_filter_cost", "Sweep the VT filter-lookup cost");
  parser.option_double("scale", "problem scale factor", &scale);
  if (!parser.parse(argc, argv)) return 0;

  std::puts("Ablation: VT filter-lookup cost vs Sppm policy times at 8 CPUs (s)\n");
  TextTable table({"lookup (ns)", "Full-Off", "None", "Full-Off/None"});

  std::vector<double> ratios;
  for (const sim::TimeNs lookup : {0LL, 75LL, 150LL, 300LL, 600LL}) {
    machine::MachineSpec spec = machine::ibm_power3_sp();
    spec.costs.vt_filter_lookup = lookup;

    auto run = [&](Policy policy) {
      dynprof::Launch::Options options;
      options.app = &asci::sppm();
      options.policy = policy;
      options.params.nprocs = 8;
      options.params.problem_scale = scale;
      options.machine = spec;
      return dynprof::run_policy(std::move(options)).app_seconds;
    };
    const double off = run(Policy::kFullOff);
    const double none = run(Policy::kNone);
    ratios.push_back(off / none);
    table.add_row({std::to_string(lookup), TextTable::num(off, 2), TextTable::num(none, 2),
                   TextTable::num(off / none, 3)});
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  std::fputs(table.render().c_str(), stdout);

  std::vector<ShapeCheck> checks;
  checks.push_back({"zero lookup cost: Full-Off within 2% of None (call overhead only)",
                    ratios.front() < 1.05});
  checks.push_back({"Full-Off/None grows monotonically with lookup cost",
                    ratios.back() > ratios.front() && ratios[2] > ratios[1]});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
