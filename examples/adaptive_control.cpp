// adaptive_control: self-tuning profiling with the overhead-budget
// controller (DESIGN.md §7).
//
// An 8-rank application runs two phases:
//
//   * steps 0-5: an interpolation kernel hammers two tiny helpers in
//     kernels.c (20k calls per step) next to a heavy smoother -- fully
//     instrumented, the helpers alone cost ~10% of the run;
//   * steps 6-13: the helpers fall silent (the solver switched algorithms)
//     and only the heavy functions remain.
//
// The run starts under Policy::kAdaptive: *every* user function is
// dynamically instrumented, and the budget controller watches the measured
// overhead at each safe point.  With the filter actuator, deactivated
// helpers still tick the suppressed-pair counters, so the controller sees
// phase changes:
//
//   * a few syncs into phase A it switches kernels.c off (over budget);
//   * once phase B shows the helpers' call rate collapsed, it brings the
//     module back -- full coverage again, for free.
//
// The decision trail below is the run's own explanation.
#include <cstdio>

#include "analysis/report.hpp"
#include "dynprof/policy.hpp"
#include "support/cli.hpp"

using namespace dyntrace;

namespace {

const asci::AppSpec& two_phase_app() {
  static const asci::AppSpec spec = [] {
    asci::AppSpec s;
    s.name = "two-phase";
    s.language = "MPI/C";
    s.description = "interpolation phase then smoothing phase";
    s.model = asci::AppSpec::Model::kMpi;
    s.max_procs = 64;

    auto symbols = std::make_shared<image::SymbolTable>();
    symbols->add("main", "two_phase.c");
    symbols->add("MPI_Init", "libmpi");
    symbols->add("MPI_Finalize", "libmpi");
    symbols->add("interp_weight", "kernels.c");
    symbols->add("index_map", "kernels.c");
    symbols->add("smooth", "smoother.c");
    symbols->add("exchange_halo", "halo.c");
    s.symbols = symbols;
    s.subset = {"smooth"};
    s.dynamic_list = s.subset;

    s.body = [](asci::AppContext& ctx, proc::SimThread& t) -> sim::Coro<void> {
      const image::FunctionId interp_weight = ctx.fid("interp_weight");
      const image::FunctionId index_map = ctx.fid("index_map");
      const image::FunctionId smooth = ctx.fid("smooth");
      const image::FunctionId exchange_halo = ctx.fid("exchange_halo");
      for (int step = 0; step < 14; ++step) {
        if (step < 6) {
          // Phase A: the hot helpers.
          co_await ctx.leaf_repeat(t, interp_weight, 10'000, sim::nanoseconds(500));
          co_await ctx.leaf_repeat(t, index_map, 10'000, sim::nanoseconds(500));
        }
        co_await ctx.leaf(t, smooth, sim::milliseconds(600));
        co_await ctx.leaf(t, exchange_halo, sim::milliseconds(5));
        co_await ctx.mpi()->allreduce(t, 8);
        // Safe point at the step boundary: nothing in flight.
        co_await ctx.safe_point(t);
      }
    };
    return s;
  }();
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  int cpus = 8;
  double budget = 0.05;
  CliParser parser("adaptive_control",
                   "Self-tuning profiling: overhead-budget controller demo (DESIGN.md §7).");
  parser.option_int("cpus", "MPI ranks", &cpus);
  parser.option_double("budget", "overhead budget fraction (default 0.05)", &budget);
  try {
    if (!parser.parse(argc, argv)) return 0;

    dynprof::Launch::Options options;
    options.app = &two_phase_app();
    options.policy = dynprof::Policy::kAdaptive;
    options.params.nprocs = cpus;
    options.params.confsync_interval = 1;  // a safe point every step
    options.stats_overlay_arity = 2;
    dynprof::Arming arming;
    arming.controller.budget_fraction = budget;
    arming.controller.actuator = control::Actuator::kFilter;
    const dynprof::PolicyResult result =
        dynprof::run_policy(std::move(options), std::move(arming));

    std::printf("two-phase app, %d ranks, budget %.0f%% (filter actuator)\n\n",
                cpus, budget * 100);
    std::printf("run time %.2f s, %llu trace events (%llu suppressed), %llu confsyncs\n\n",
                result.app_seconds, static_cast<unsigned long long>(result.trace_events),
                static_cast<unsigned long long>(result.filtered_events),
                static_cast<unsigned long long>(result.confsyncs));
    std::printf("controller decision trail:\n%s\n",
                analysis::render_decision_log(result.decisions).c_str());
    std::printf("=> kernels.c was profiled while cheap enough, parked while it burned\n"
                "   budget, and reinstated the moment its call rate collapsed --\n"
                "   nobody edited a configuration file mid-run.\n");
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "adaptive_control: %s\n", e.what());
    return 1;
  }
}
