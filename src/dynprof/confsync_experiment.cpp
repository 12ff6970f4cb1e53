#include "dynprof/confsync_experiment.hpp"

#include <algorithm>

#include "control/overlay.hpp"
#include "mpi/world.hpp"
#include "proc/job.hpp"
#include "sim/stats.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"
#include "vt/vtlib.hpp"

namespace dyntrace::dynprof {

ConfsyncExperimentResult run_confsync_experiment(const ConfsyncExperimentConfig& config) {
  DT_EXPECT(config.nprocs >= 1, "need at least one process");
  DT_EXPECT(config.repetitions >= 1, "need at least one repetition");

  sim::Engine engine;
  machine::Cluster cluster(engine, config.machine, config.seed ^ 0xc0ff5ee);
  mpi::World world(cluster);
  proc::ParallelJob job(cluster, "confsync-experiment");
  auto store = std::make_shared<vt::TraceStore>();
  auto staged = std::make_shared<vt::StagedUpdate>();

  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main");
  for (int i = 1; i < config.symbol_count; ++i) {
    symbols->add(str::format("experiment_fn_%03d", i));
  }

  std::shared_ptr<control::StatsOverlay> overlay;
  if (config.tree_arity > 0) {
    overlay = std::make_shared<control::StatsOverlay>(config.tree_arity);
    overlay->prepare(config.nprocs);
  }

  std::vector<std::unique_ptr<vt::VtLib>> vts;
  const auto placement = cluster.place_block(config.nprocs, 1);
  for (int pid = 0; pid < config.nprocs; ++pid) {
    proc::SimProcess& process =
        job.add_process(image::ProgramImage(symbols), placement[pid].node, placement[pid].cpu);
    mpi::Rank& rank = world.add_rank(process);
    auto vt = std::make_unique<vt::VtLib>(process, store, vt::VtLib::Options{});
    vt->link();
    vt->set_rank(&rank);
    vt->set_staged_update(staged);
    if (overlay) vt->set_stats_aggregator(overlay);
    vts.push_back(std::move(vt));
  }

  if (config.with_changes) {
    // The monitoring tool stages an alternating reconfiguration at each
    // breakpoint (scripted: no user-interaction delay).
    vts[0]->set_break_handler([staged](vt::VtLib&) -> sim::TimeNs {
      const bool off = (staged->version % 2) == 0;
      staged->program = {{!off, "experiment_fn_0*"}, {off, "experiment_fn_1*"}};
      ++staged->version;
      return 0;
    });
  }

  sim::Accumulator latency;
  for (int pid = 0; pid < config.nprocs; ++pid) {
    job.set_main(pid, [&, pid](proc::SimThread& thread) -> sim::Coro<void> {
      mpi::Rank& rank = world.rank(pid);
      vt::VtLib& vt = *vts[pid];
      co_await rank.init(thread);
      co_await vt.vt_init(thread);
      if (config.write_statistics) {
        // Touch every symbol once so the per-function tables are fully
        // populated: the legacy path always ships the whole table; the
        // overlay ships records with activity.  Same record count for both
        // keeps the comparison honest.
        for (image::FunctionId fn = 0; fn < symbols->size(); ++fn) {
          co_await vt.vt_begin(thread, fn);
          co_await vt.vt_end(thread, fn);
        }
      }
      for (int rep = 0; rep < config.repetitions; ++rep) {
        co_await rank.barrier(thread);  // align ranks before timing
        const sim::TimeNs begin = thread.engine().now();
        co_await vt.confsync(thread, config.write_statistics);
        if (pid == 0) latency.add(sim::to_seconds(thread.engine().now() - begin));
      }
      co_await rank.finalize(thread);
    });
  }

  job.start();
  engine.run();

  ConfsyncExperimentResult result;
  result.mean_seconds = latency.mean();
  result.min_seconds = latency.min();
  result.max_seconds = latency.max();
  return result;
}

}  // namespace dyntrace::dynprof
