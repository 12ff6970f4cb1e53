// The control plane's acceptance bench (DESIGN.md §7):
//
//   Part 1 -- statistics reduction: VT_confsync(write_statistics) at 512
//   processes, linear gather vs the k=4 aggregation overlay.
//
//   Part 2 -- overhead budget: Smg98 on the Figure 7(a) machine at 64 CPUs
//   under None, Subset, and Adaptive (all user functions dynamically
//   instrumented, probe actuator, 5% budget).  Adaptive must finish within
//   1.3x of None while tracing at least as many events as Subset.
//
// --json writes both results to a machine-readable artifact for CI trend
// tracking (BENCH_control.json).
#include <cstdio>
#include <string>

#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "dynprof/confsync_experiment.hpp"

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;
  using dynprof::Policy;

  double scale = 1.0;
  double budget = 0.05;
  int reps = 16;
  std::int64_t seed = 42;
  int arity = 4;
  std::string json_path;
  bool show_decisions = false;
  CliParser parser("control_adaptive",
                   "Adaptive control plane: budget controller + aggregation overlay");
  parser.option_double("scale", "Smg98 problem scale (default 1.0 = paper size)", &scale);
  parser.option_double("budget", "overhead budget fraction (default 0.05)", &budget);
  parser.option_int("reps", "confsync repetitions for part 1 (default 16)", &reps);
  parser.option_int("seed", "simulation seed", &seed);
  parser.option_int("arity", "aggregation overlay arity (default 4)", &arity);
  parser.option_string("json", "write results to this JSON file", &json_path);
  parser.flag("decisions", "print the controller's decision trail", &show_decisions);
  if (!parser.parse(argc, argv)) return 0;
  // The overlay fans in at least two children per interior rank.
  DT_EXPECT(arity >= 2, "--arity must be at least 2 (got ", arity, ")");

  // --- Part 1: linear vs tree statistics reduction at 512 processes --------
  std::puts("Part 1: VT_confsync statistics reduction at 512 processes (s)\n");
  dynprof::ConfsyncExperimentConfig sync_config;
  sync_config.nprocs = 512;
  sync_config.machine = machine::ibm_power3_sp();
  sync_config.repetitions = reps;
  sync_config.write_statistics = true;
  const double linear512 = run_confsync_experiment(sync_config).mean_seconds;
  sync_config.tree_arity = arity;
  const double tree512 = run_confsync_experiment(sync_config).mean_seconds;

  TextTable sync_table({"Reduction", "Mean (s)"});
  sync_table.add_row({"linear gather", TextTable::num(linear512, 6)});
  sync_table.add_row({"tree k=" + std::to_string(arity), TextTable::num(tree512, 6)});
  std::fputs(sync_table.render().c_str(), stdout);
  std::printf("speedup: %.1fx\n\n", linear512 / tree512);

  // --- Part 2: Smg98 at 64 CPUs, None vs Subset vs Adaptive ----------------
  std::puts("Part 2: Smg98 execution time at 64 CPUs (s)");
  const asci::AppSpec app = asci::smg98();
  auto run_one = [&](Policy policy) {
    dynprof::Launch::Options options;
    options.app = &app;
    options.policy = policy;
    options.params.nprocs = 64;
    options.params.problem_scale = scale;
    options.params.seed = static_cast<std::uint64_t>(seed);
    options.stats_overlay_arity = arity;
    dynprof::Arming arming;
    arming.controller.budget_fraction = budget;
    // The probe actuator: removed probes cost exactly zero, which is what
    // lets a fully instrumented launch converge to None-like time.
    arming.controller.actuator = control::Actuator::kProbe;
    const auto result = dynprof::run_policy(std::move(options), std::move(arming));
    std::fprintf(stderr, ".");
    std::fflush(stderr);
    return result;
  };
  const dynprof::PolicyResult none = run_one(Policy::kNone);
  const dynprof::PolicyResult subset = run_one(Policy::kSubset);
  const dynprof::PolicyResult adaptive = run_one(Policy::kAdaptive);
  std::fprintf(stderr, "\n");

  TextTable app_table({"Policy", "Time (s)", "Trace events", "Confsyncs"});
  for (const auto* r : {&none, &subset, &adaptive}) {
    app_table.add_row({to_string(r->policy), TextTable::num(r->app_seconds, 2),
                       std::to_string(r->trace_events), std::to_string(r->confsyncs)});
  }
  std::fputs(app_table.render().c_str(), stdout);
  std::printf("\nAdaptive/None: %.3fx (budget %.0f%%); coverage vs Subset: %.1fx events\n",
              adaptive.app_seconds / none.app_seconds, budget * 100,
              subset.trace_events > 0
                  ? static_cast<double>(adaptive.trace_events) /
                        static_cast<double>(subset.trace_events)
                  : 0.0);
  if (show_decisions) {
    std::puts("\ncontroller decision trail:");
    std::fputs(analysis::render_decision_log(adaptive.decisions).c_str(), stdout);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"reduction_512\": {\"linear_s\": %.6f, \"tree_s\": %.6f, "
                 "\"arity\": %d, \"speedup\": %.2f},\n"
                 "  \"smg98_64\": {\n"
                 "    \"scale\": %.3f,\n"
                 "    \"budget_fraction\": %.3f,\n"
                 "    \"none_s\": %.3f,\n"
                 "    \"subset_s\": %.3f,\n"
                 "    \"adaptive_s\": %.3f,\n"
                 "    \"adaptive_over_none\": %.4f,\n"
                 "    \"none_events\": %llu,\n"
                 "    \"subset_events\": %llu,\n"
                 "    \"adaptive_events\": %llu,\n"
                 "    \"adaptive_confsyncs\": %llu,\n"
                 "    \"controller_decisions\": %zu\n"
                 "  }\n"
                 "}\n",
                 linear512, tree512, arity, linear512 / tree512, scale,
                 budget, none.app_seconds, subset.app_seconds, adaptive.app_seconds,
                 adaptive.app_seconds / none.app_seconds,
                 static_cast<unsigned long long>(none.trace_events),
                 static_cast<unsigned long long>(subset.trace_events),
                 static_cast<unsigned long long>(adaptive.trace_events),
                 static_cast<unsigned long long>(adaptive.confsyncs),
                 adaptive.decisions.decisions.size());
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::vector<ShapeCheck> checks;
  checks.push_back({"tree reduction beats linear at 512 procs", tree512 < linear512});
  checks.push_back({"controller made at least one pruning decision",
                    [&] {
                      for (const auto& d : adaptive.decisions.decisions) {
                        if (!d.deactivated.empty()) return true;
                      }
                      return false;
                    }()});
  checks.push_back({"adaptive coverage >= Subset coverage",
                    adaptive.trace_events >= subset.trace_events});
  if (scale >= 0.999) {
    // The paper-size acceptance gate; scaled-down smoke runs skip it (the
    // fixed confsync/patch costs do not shrink with the problem).
    checks.push_back({"adaptive within 1.3x of None at 64 CPUs (5% budget)",
                      adaptive.app_seconds <= 1.3 * none.app_seconds});
  }
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
