// Fault-tolerant statistics overlay: killing any single overlay node must
// yield exactly the statistics a linear gather over the surviving ranks
// would produce (satellite 4) -- the dead node's children re-parent to
// their first live ancestor, and the root reports the sync as partial,
// naming the missing ranks.
#include "control/overlay.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/injector.hpp"
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

struct FaultRunResult {
  std::vector<vt::FuncStats> survivors;  ///< linear fold over live ranks
  std::vector<vt::FuncStats> tree;       ///< the overlay's root result
  std::vector<StatsOverlay::SyncReport> partial_syncs;
  std::uint64_t rounds = 0;
};

/// P ranks, each with rank-dependent activity, one overlay reduction driven
/// directly (the confsync barrier would block on dead ranks -- the overlay
/// itself is what must tolerate them).  `plan_text` names the dead ranks.
FaultRunResult run_faulty_overlay(int nprocs, int arity, const std::string& plan_text) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  fault::FaultInjector injector(fault::FaultPlan::parse(plan_text));
  cluster.set_fault_injector(injector);
  mpi::World world(cluster);
  proc::ParallelJob job(cluster, "overlay-fault-test");
  auto store = std::make_shared<vt::TraceStore>();
  auto staged = std::make_shared<vt::StagedUpdate>();
  auto overlay = std::make_shared<StatsOverlay>(arity);

  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main");
  for (int i = 1; i < 12; ++i) symbols->add(str::format("fn_%02d", i));

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
      for (image::FunctionId fn = 1; fn < symbols->size(); ++fn) {
        const int pairs = (pid + static_cast<int>(fn)) % 3 + 1;
        for (int i = 0; i < pairs; ++i) {
          co_await vt.vt_begin(thread, fn);
          co_await thread.compute(100 + 37 * pid + 11 * static_cast<int>(fn));
          co_await vt.vt_end(thread, fn);
        }
      }
      co_await overlay->reduce(thread, vt);
      co_await rank.finalize(thread);
    });
  }

  job.start();
  engine.run();

  FaultRunResult result;
  result.tree = overlay->root_result();
  result.rounds = overlay->rounds();
  result.partial_syncs = overlay->partial_syncs();
  result.survivors.assign(symbols->size(), vt::FuncStats{});
  for (int pid = 0; pid < nprocs; ++pid) {
    if (injector.rank_alive(pid, engine.now())) {
      vt::merge_stats(result.survivors, vts[pid]->statistics());
    }
  }
  return result;
}

TEST(StatsOverlayFaults, NoDeathsMatchTheFullFold) {
  // A plan is installed but nothing fires: reduce must agree with the
  // healthy fold and report nothing.
  const FaultRunResult r = run_faulty_overlay(16, 4, "seed 1\n");
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_TRUE(r.partial_syncs.empty());
  EXPECT_TRUE(stats_equal(r.tree, r.survivors));
}

TEST(StatsOverlayFaults, AnySingleInteriorDeathMatchesSurvivorFold) {
  // P=16, k=4: interior (non-root, non-leaf) ranks are 1, 2, 3.  Killing
  // any one of them re-parents its children to the root; the merged result
  // must equal the linear gather over the 15 survivors.
  for (const int dead : {1, 2, 3}) {
    const FaultRunResult r = run_faulty_overlay(
        16, 4, str::format("kill-rank rank=%d at=0\n", dead));
    EXPECT_EQ(r.rounds, 1u) << "dead=" << dead;
    EXPECT_TRUE(stats_equal(r.tree, r.survivors))
        << "tree result diverged from survivor fold, dead=" << dead;
    ASSERT_EQ(r.partial_syncs.size(), 1u) << "dead=" << dead;
    EXPECT_EQ(r.partial_syncs[0].missing, std::vector<int>{dead});
    EXPECT_FALSE(r.partial_syncs[0].quorum_met);  // default quorum is 100%
  }
}

TEST(StatsOverlayFaults, LeafDeathOnlyLosesThatRank) {
  const FaultRunResult r = run_faulty_overlay(16, 4, "kill-rank rank=13 at=0\n");
  EXPECT_TRUE(stats_equal(r.tree, r.survivors));
  ASSERT_EQ(r.partial_syncs.size(), 1u);
  EXPECT_EQ(r.partial_syncs[0].missing, std::vector<int>{13});
}

TEST(StatsOverlayFaults, ChainedDeathsSpliceAcrossLevels) {
  // Rank 1 (child of root) and rank 5 (child of 1) both dead: rank 5's
  // children do not exist at P=16, and 6..8 splice past both bodies up to
  // the root.  Survivors: everyone but 1 and 5.
  const FaultRunResult r =
      run_faulty_overlay(16, 4, "kill-rank rank=1 at=0\nkill-rank rank=5 at=0\n");
  EXPECT_TRUE(stats_equal(r.tree, r.survivors));
  ASSERT_EQ(r.partial_syncs.size(), 1u);
  EXPECT_EQ(r.partial_syncs[0].missing, (std::vector<int>{1, 5}));
}

TEST(StatsOverlayFaults, DeeperTreesReparentToGrandparents) {
  // k=2, P=16 gives a 4-level tree; kill an interior node two levels down.
  for (const int dead : {1, 2, 5, 6}) {
    const FaultRunResult r = run_faulty_overlay(
        16, 2, str::format("kill-rank rank=%d at=0\n", dead));
    EXPECT_TRUE(stats_equal(r.tree, r.survivors)) << "dead=" << dead;
    ASSERT_EQ(r.partial_syncs.size(), 1u) << "dead=" << dead;
    EXPECT_EQ(r.partial_syncs[0].missing, std::vector<int>{dead});
  }
}

}  // namespace
}  // namespace dyntrace::control
