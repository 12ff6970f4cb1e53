// hybrid_profiling: the combined paradigm the paper's conclusion endorses
// (§6) -- ephemeral instrumentation on a real kernel.
//
// Runs Sppm uninstrumented, lets a statistical sampler watch it for a few
// seconds, then directs dynprof to insert detailed VT probes into the most
// sampled functions for a bounded window and remove them again.  Compare
// the resulting overhead and trace volume against the static Full build.
//
//     $ ./hybrid_profiling --cpus 8
#include <cstdio>

#include "dynprof/hybrid.hpp"
#include "dynprof/policy.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace dyntrace;

int main(int argc, char** argv) {
  int cpus = 8;
  double scale = 1.0;
  CliParser parser("hybrid_profiling", "Sampling-guided ephemeral instrumentation (§6).");
  parser.option_int("cpus", "MPI ranks", &cpus).option_double("scale", "problem scale", &scale);
  try {
    if (!parser.parse(argc, argv)) return 0;

    auto options = [&](dynprof::Policy policy) {
      dynprof::Launch::Options o;
      o.app = &asci::sppm();
      o.params.nprocs = cpus;
      o.params.problem_scale = scale;
      o.policy = policy;
      return o;
    };
    // Reference points: Full static instrumentation and None.
    const auto full = dynprof::run_policy(options(dynprof::Policy::kFull));
    const auto none = dynprof::run_policy(options(dynprof::Policy::kNone));

    // The hybrid run: dynprof only starts the job; the hybrid controller
    // inserts and removes the probes.
    dynprof::Arming arming;
    arming.script = "start\n";
    dynprof::PolicyRun run(options(dynprof::Policy::kDynamic), std::move(arming));
    run.start();

    dynprof::HybridController::Options hopt;
    hopt.sample_window = sim::seconds(8);
    hopt.sampling_interval = sim::milliseconds(5);
    hopt.top_k = 4;
    hopt.detail_window = sim::seconds(20);
    dynprof::HybridController controller(run.launch(), *run.tool(), hopt);
    controller.start();
    run.launch().engine().run();

    const auto hybrid = run.finish();
    const auto& report = controller.report();

    std::printf("sampling phase: %llu samples; selected:",
                static_cast<unsigned long long>(report.total_samples));
    for (const auto& name : report.selected) std::printf(" %s", name.c_str());
    std::printf("\ndetail window: %.1f s .. %.1f s (probes %s)\n\n",
                sim::to_seconds(report.instrumented_from),
                sim::to_seconds(report.instrumented_to),
                report.removed ? "removed afterwards" : "left in place");

    TextTable table({"approach", "time (s)", "vs None", "trace events"});
    auto row = [&table](const char* name, double seconds, double baseline,
                        std::uint64_t events) {
      table.add_row({name, TextTable::num(seconds, 2),
                     TextTable::num(seconds / baseline, 3) + "x",
                     str::format("%llu", (unsigned long long)events)});
    };
    row("None (blind)", none.app_seconds, none.app_seconds, none.trace_events);
    row("Full static", full.app_seconds, none.app_seconds, full.trace_events);
    row("Hybrid window", hybrid.app_seconds, none.app_seconds, hybrid.trace_events);
    std::fputs(table.render().c_str(), stdout);

    std::printf(
        "\nthe hybrid run pays near-None overhead and a fraction of Full's trace\n"
        "volume, yet contains a complete profile of %zu hot functions for a %.0f s\n"
        "window -- the paper's \"combined ... paradigm is promising\" (§6).\n",
        report.selected.size(),
        sim::to_seconds(report.instrumented_to - report.instrumented_from));
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "hybrid_profiling: %s\n", e.what());
    return 1;
  }
}
