// Quickstart: the dyntrace stack in one file.
//
// Builds a 4-rank MPI mini-application on the simulated IBM SP, runs it
// twice -- once uninstrumented, once with dynprof dynamically inserting
// VT_begin/VT_end probes into the one interesting function -- and prints
// the measured overhead, the resulting profile, and a text time-line.
//
//   $ ./quickstart
#include <cstdio>
#include <memory>

#include "analysis/profile.hpp"
#include "analysis/timeline.hpp"
#include "dynprof/policy.hpp"

using namespace dyntrace;

namespace {

// --- 1. Describe the application -------------------------------------------
//
// A workload is a symbol table plus a body coroutine.  The body calls
// functions through the instrumentation protocol (ctx.leaf / ctx.call) and
// uses the simulated MPI API; costs of any instrumentation attached at run
// time are charged automatically.
const asci::AppSpec& mini_app() {
  static const asci::AppSpec spec = [] {
    asci::AppSpec s;
    s.name = "quickstart";
    s.language = "MPI/C";
    s.description = "a toy stencil loop";
    s.model = asci::AppSpec::Model::kMpi;
    s.scaling = asci::AppSpec::Scaling::kWeak;
    s.max_procs = 8;

    auto symbols = std::make_shared<image::SymbolTable>();
    symbols->add("main", "mini.c");
    symbols->add("MPI_Init", "libmpi");
    symbols->add("MPI_Finalize", "libmpi");
    symbols->add("stencil", "mini.c");   // the hot function
    symbols->add("checkpoint", "mini.c");
    s.symbols = symbols;
    s.subset = {"stencil"};
    s.dynamic_list = s.subset;

    s.body = [](asci::AppContext& ctx, proc::SimThread& t) -> sim::Coro<void> {
      // Resolve names once; the calls below go by FunctionId.
      const image::FunctionId stencil = ctx.fid("stencil");
      const image::FunctionId checkpoint = ctx.fid("checkpoint");
      for (int step = 0; step < 20; ++step) {
        // 5k stencil calls of ~20 us each, executed through the probe
        // protocol (one real call + an exact aggregate charge).
        co_await ctx.leaf_repeat(t, stencil, 5'000, sim::microseconds(20));
        co_await ctx.mpi()->allreduce(t, 8);
      }
      co_await ctx.leaf(t, checkpoint, sim::milliseconds(30));
    };
    return s;
  }();
  return spec;
}

dynprof::Launch::Options mini_options(dynprof::Policy policy) {
  dynprof::Launch::Options options;
  options.app = &mini_app();
  options.policy = policy;
  options.params.nprocs = 4;
  return options;
}

}  // namespace

int main() {
  // --- 2. Baseline: no subroutine instrumentation --------------------------
  const auto none = dynprof::run_policy(mini_options(dynprof::Policy::kNone));
  std::printf("uninstrumented run:        %.3f s  (%llu trace events, MPI only)\n",
              none.app_seconds, static_cast<unsigned long long>(none.trace_events));

  // --- 3. dynprof: dynamic instrumentation of the hot function -------------
  //
  // A Dynamic PolicyRun drives the full paper workflow under the hood:
  // poe-create (suspended), DPCL connect, the Figure-6 MPI_Init hook,
  // deferred insertion of the requested probes, spin release, run.
  dynprof::PolicyRun run(mini_options(dynprof::Policy::kDynamic));
  const auto dynamic = run.run();
  std::printf("dynamically instrumented:  %.3f s  (%llu trace events)\n", dynamic.app_seconds,
              static_cast<unsigned long long>(dynamic.trace_events));
  std::printf("overhead: %.2f%%\n\n", 100.0 * (dynamic.app_seconds / none.app_seconds - 1.0));

  // --- 4. Postmortem analysis (what the VGV GUI would display) -------------
  dynprof::Launch& launch = run.launch();
  std::printf("dynprof timefile:\n%s\n", run.tool()->timefile_text().c_str());

  // VT statistics include the aggregated calls (the trace itself holds one
  // representative enter/leave pair per aggregate batch).
  const auto& stats = launch.vt(0).statistics();
  const auto stencil = mini_app().symbols->find("stencil")->id;
  std::printf("rank 0 VT statistics: stencil called %llu times, %.3f s inclusive\n\n",
              static_cast<unsigned long long>(stats[stencil].calls),
              sim::to_seconds(stats[stencil].inclusive));

  analysis::TraceAnalyzer analyzer(*launch.trace());
  std::printf("top functions in the trace (aggregated over 4 ranks):\n%s\n",
              analyzer.top_functions_table(mini_app().symbols.get(), 5).c_str());
  std::printf("%s", analysis::render_timeline(*launch.trace()).c_str());
  return 0;
}
