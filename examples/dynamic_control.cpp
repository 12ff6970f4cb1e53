// dynamic_control: dynamic control of statically inserted instrumentation
// (paper §2 Figure 2 and §5).
//
// Builds a fully statically instrumented 8-rank application whose time-step
// loop calls VT_confsync at a safe point each iteration.  A simulated
// monitoring tool sits on rank 0's configuration_break breakpoint and
// reconfigures the instrumentation mid-run:
//
//   * steps 0-4:  everything deactivated (only lookups are paid);
//   * at step 5:  the user activates the solver functions -- with a
//     modelled 8-second GUI interaction, the paper's "critical path";
//   * at step 10: the user deactivates everything again and asks for a
//     statistics dump.
//
// Output shows the phase boundaries in the trace and the per-phase event
// volume: detailed data exists only for the window the user selected.
#include <cstdio>

#include "analysis/profile.hpp"
#include "analysis/timeline.hpp"
#include "dynprof/launch.hpp"
#include "support/cli.hpp"

using namespace dyntrace;

namespace {

const asci::AppSpec& stepped_app() {
  static const asci::AppSpec spec = [] {
    asci::AppSpec s;
    s.name = "stepped";
    s.language = "MPI/C";
    s.description = "time-step loop with confsync safe points";
    s.model = asci::AppSpec::Model::kMpi;
    s.max_procs = 64;

    auto symbols = std::make_shared<image::SymbolTable>();
    symbols->add("main", "stepped.c");
    symbols->add("MPI_Init", "libmpi");
    symbols->add("MPI_Finalize", "libmpi");
    symbols->add("solve_pressure", "solver.c");
    symbols->add("solve_velocity", "solver.c");
    symbols->add("apply_bc", "bc.c");
    s.symbols = symbols;
    s.subset = {"solve_pressure", "solve_velocity"};
    s.dynamic_list = s.subset;

    s.body = [](asci::AppContext& ctx, proc::SimThread& t) -> sim::Coro<void> {
      const image::FunctionId solve_pressure = ctx.fid("solve_pressure");
      const image::FunctionId solve_velocity = ctx.fid("solve_velocity");
      const image::FunctionId apply_bc = ctx.fid("apply_bc");
      for (int step = 0; step < 15; ++step) {
        // The safe point: no messages are in flight here (§2).
        const bool dump_stats = step == 10;
        std::vector<std::int64_t> arg(1, dump_stats ? 1 : 0);
        co_await t.lib_call("VT_confsync", arg);

        co_await ctx.leaf_repeat(t, solve_pressure, 4000, sim::microseconds(40));
        co_await ctx.leaf_repeat(t, solve_velocity, 4000, sim::microseconds(35));
        co_await ctx.leaf(t, apply_bc, sim::milliseconds(25));
        co_await ctx.mpi()->allreduce(t, 8);
      }
    };
    return s;
  }();
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  int cpus = 8;
  CliParser parser("dynamic_control", "Dynamic control of instrumentation demo (paper §5).");
  parser.option_int("cpus", "MPI ranks", &cpus);
  try {
    if (!parser.parse(argc, argv)) return 0;

    // Statically instrument everything, initially all deactivated: the
    // Full-Off starting state of a dynamic-control session.
    dynprof::Launch::Options options;
    options.app = &stepped_app();
    options.params.nprocs = cpus;
    options.policy = dynprof::Policy::kFullOff;
    dynprof::Launch launch(std::move(options));

    // The monitoring tool: a breakpoint handler on rank 0.
    int sync_count = 0;
    launch.vt(0).set_break_handler([&launch, &sync_count](vt::VtLib&) -> sim::TimeNs {
      ++sync_count;
      auto staged = launch.staged();
      if (sync_count == 6) {  // before step 5: activate the solvers
        staged->program = {{true, "solve_*"}};
        ++staged->version;
        std::printf("[tool] sync %d: user activates solve_* (8 s at the GUI)\n", sync_count);
        return sim::seconds(8);  // the human is the critical path (§5)
      }
      if (sync_count == 11) {  // before step 10: back off, dump statistics
        staged->program = {{false, "*"}};
        ++staged->version;
        std::printf("[tool] sync %d: user deactivates everything again\n", sync_count);
        return sim::seconds(3);
      }
      return 0;
    });

    launch.run_to_completion();

    // Postmortem: where did subroutine events land?
    const auto events = launch.trace()->merged();
    sim::TimeNs first_enter = -1, last_enter = -1;
    std::uint64_t enters = 0;
    for (const auto& e : events) {
      if (e.kind == vt::EventKind::kEnter) {
        if (first_enter < 0) first_enter = e.time;
        last_enter = e.time;
        ++enters;
      }
    }
    std::uint64_t filtered = 0;
    for (int pid = 0; pid < launch.process_count(); ++pid) {
      filtered += launch.vt(pid).events_filtered();
    }

    std::printf("\nrun finished at t=%.1f s; %d confsyncs on rank 0\n",
                sim::to_seconds(launch.job().finish_time()), sync_count);
    std::printf("subroutine enter events recorded: %llu (window %.1f s .. %.1f s)\n",
                static_cast<unsigned long long>(enters), sim::to_seconds(first_enter),
                sim::to_seconds(last_enter));
    std::printf("probe executions filtered outside the window: %llu\n",
                static_cast<unsigned long long>(filtered));
    std::printf("=> detailed data exists only for the user-selected steps 5-9,\n");
    std::printf("   at a lookup-only cost everywhere else (the paper's §5 trade).\n\n");

    analysis::TraceAnalyzer analyzer(*launch.trace());
    std::printf("%s\n",
                analyzer.top_functions_table(stepped_app().symbols.get(), 5).c_str());
    std::printf("%s", analysis::render_timeline(*launch.trace()).c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "dynamic_control: %s\n", e.what());
    return 1;
  }
}
