// The aggregation overlay must be a drop-in replacement for the legacy
// linear statistics gather: same merged table, bit for bit, for every tree
// arity and rank count.  Statistics are integral nanoseconds and the merge
// is associative + commutative-with-order-fixed, so "equivalent" here means
// exactly equal, not approximately.
#include "control/overlay.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mpi/world.hpp"
#include "proc/job.hpp"
#include "support/strings.hpp"
#include "vt/vtlib.hpp"

namespace dyntrace::control {
namespace {

bool stats_equal(const std::vector<vt::FuncStats>& a, const std::vector<vt::FuncStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].calls != b[i].calls || a[i].filtered != b[i].filtered ||
        a[i].inclusive != b[i].inclusive || a[i].exclusive != b[i].exclusive ||
        a[i].min_inclusive != b[i].min_inclusive || a[i].max_inclusive != b[i].max_inclusive) {
      return false;
    }
  }
  return true;
}

struct RunResult {
  std::vector<vt::FuncStats> linear;  ///< fold of the per-rank tables
  std::vector<vt::FuncStats> tree;    ///< the overlay's root result
  std::uint64_t rounds = 0;
};

/// Run P ranks with rank-dependent activity (every third rank contributes
/// nothing) through one statistics confsync over a k-ary overlay, and
/// return both the overlay's answer and the linear fold of the per-rank
/// tables it consumed.
RunResult run_overlay_job(int nprocs, int arity, int syncs = 1) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  mpi::World world(cluster);
  proc::ParallelJob job(cluster, "overlay-test");
  auto store = std::make_shared<vt::TraceStore>();
  auto staged = std::make_shared<vt::StagedUpdate>();
  auto overlay = std::make_shared<StatsOverlay>(arity);

  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main");
  for (int i = 1; i < 24; ++i) symbols->add(str::format("fn_%02d", i));

  std::vector<std::unique_ptr<vt::VtLib>> vts;
  const auto placement = cluster.place_block(nprocs, 1);
  for (int pid = 0; pid < nprocs; ++pid) {
    proc::SimProcess& process =
        job.add_process(image::ProgramImage(symbols), placement[pid].node, placement[pid].cpu);
    mpi::Rank& rank = world.add_rank(process);
    auto vt = std::make_unique<vt::VtLib>(process, store, vt::VtLib::Options{});
    vt->link();
    vt->set_rank(&rank);
    vt->set_staged_update(staged);
    vt->set_stats_aggregator(overlay);
    vts.push_back(std::move(vt));
  }

  for (int pid = 0; pid < nprocs; ++pid) {
    job.set_main(pid, [&, pid](proc::SimThread& thread) -> sim::Coro<void> {
      mpi::Rank& rank = world.rank(pid);
      vt::VtLib& vt = *vts[pid];
      co_await rank.init(thread);
      co_await vt.vt_init(thread);
      for (int s = 0; s < syncs; ++s) {
        if (pid % 3 != 0) {  // every third rank stays silent (all-zero table)
          for (image::FunctionId fn = 1; fn < symbols->size(); ++fn) {
            const int pairs = (pid + static_cast<int>(fn) + s) % 4;
            for (int i = 0; i < pairs; ++i) {
              co_await vt.vt_begin(thread, fn);
              co_await thread.compute(100 + 37 * pid + 11 * static_cast<int>(fn));
              co_await vt.vt_end(thread, fn);
            }
          }
        }
        co_await vt.confsync(thread, /*write_statistics=*/true);
      }
      co_await rank.finalize(thread);
    });
  }

  job.start();
  engine.run();

  RunResult result;
  result.tree = overlay->root_result();
  result.rounds = overlay->rounds();
  result.linear.assign(symbols->size(), vt::FuncStats{});
  for (const auto& vt : vts) vt::merge_stats(result.linear, vt->statistics());
  return result;
}

TEST(ReductionPlan, TopologyRoundTrips) {
  for (const int arity : {2, 3, 4, 8}) {
    for (const int size : {1, 2, 5, 16, 64}) {
      const ReductionPlan plan{size, arity};
      EXPECT_EQ(plan.parent(0), -1);
      int counted = 0;
      for (int r = 0; r < size; ++r) {
        for (const int child : plan.children(r)) {
          EXPECT_EQ(plan.parent(child), r);
          ++counted;
        }
        EXPECT_LE(static_cast<int>(plan.children(r).size()), arity);
      }
      EXPECT_EQ(counted, size - 1);  // every non-root has exactly one parent
    }
  }
}

TEST(StatsOverlay, MatchesLinearFoldAcrossSizesAndArities) {
  for (const int nprocs : {2, 16, 64}) {
    for (const int arity : {2, 4, 8}) {
      const RunResult r = run_overlay_job(nprocs, arity);
      EXPECT_EQ(r.rounds, 1u) << "P=" << nprocs << " k=" << arity;
      EXPECT_TRUE(stats_equal(r.tree, r.linear))
          << "tree result diverged from linear fold at P=" << nprocs << " k=" << arity;
      EXPECT_GT(vt::nonzero_stat_count(r.tree), 0) << "P=" << nprocs << " k=" << arity;
    }
  }
}

TEST(StatsOverlay, RepeatedSyncsStayCumulative) {
  // Two statistics syncs: the second reduction sees the cumulative tables
  // (VT statistics are never reset), and must still match the fold.
  const RunResult r = run_overlay_job(16, 4, /*syncs=*/2);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_TRUE(stats_equal(r.tree, r.linear));
}

TEST(StatsOverlay, AllRanksSilentYieldsZeroTable) {
  // P=3 with the "every third rank silent" rule leaves rank 0 silent; use
  // pid pattern where *all* ranks are multiples of 3: P=1.
  const RunResult r = run_overlay_job(1, 4);
  EXPECT_EQ(vt::nonzero_stat_count(r.tree), 0);
  EXPECT_TRUE(stats_equal(r.tree, r.linear));
}

}  // namespace
}  // namespace dyntrace::control
