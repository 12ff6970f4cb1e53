// Behavioural tests for the overhead estimator and the budget controller:
// measurement accuracy, over-budget deactivation with module grouping,
// hysteresis + reactivation when the hot phase ends, and the mid-nest
// deactivate -> reactivate regression (the statistics stack must stay
// balanced when the filter flips between an enter and its exit).
#include "control/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "control/estimator.hpp"
#include "image/image.hpp"
#include "image/snippet.hpp"
#include "mpi/world.hpp"
#include "proc/job.hpp"
#include "vt/vtlib.hpp"

namespace dyntrace::control {
namespace {

/// A P-rank job whose ranks run `body(pid, vt, rank, thread)` between
/// vt_init and finalize, sharing one staged-update channel.
struct ControlHarness {
  explicit ControlHarness(int nprocs, std::shared_ptr<image::SymbolTable> syms)
      : symbols(std::move(syms)), cluster(engine, machine::ibm_power3_sp()), world(cluster) {
    job = std::make_unique<proc::ParallelJob>(cluster, "control-test");
    store = std::make_shared<vt::TraceStore>();
    staged = std::make_shared<vt::StagedUpdate>();
    const auto placement = cluster.place_block(nprocs, 1);
    for (int pid = 0; pid < nprocs; ++pid) {
      proc::SimProcess& process = job->add_process(image::ProgramImage(this->symbols),
                                                   placement[pid].node, placement[pid].cpu);
      mpi::Rank& rank = world.add_rank(process);
      // Give every non-main function the dynprof probe pair, so the
      // estimator's image-state pricing sees the instrumentation whose
      // calls the body models by invoking VT directly.
      for (image::FunctionId fn = 1; fn < this->symbols->size(); ++fn) {
        process.image().install_probe(
            fn, image::ProbeWhere::kEntry,
            image::snippet::call("VT_begin", {static_cast<std::int64_t>(fn)}));
        process.image().install_probe(
            fn, image::ProbeWhere::kExit,
            image::snippet::call("VT_end", {static_cast<std::int64_t>(fn)}));
      }
      auto vt = std::make_unique<vt::VtLib>(process, store, vt::VtLib::Options{});
      vt->link();
      vt->set_rank(&rank);
      vt->set_staged_update(staged);
      vts.push_back(std::move(vt));
    }
  }

  using Body = std::function<sim::Coro<void>(int, vt::VtLib&, proc::SimThread&)>;

  void run(Body body) {
    for (int pid = 0; pid < world.size(); ++pid) {
      job->set_main(pid, [this, pid, body](proc::SimThread& thread) -> sim::Coro<void> {
        co_await world.rank(pid).init(thread);
        co_await vts[pid]->vt_init(thread);
        co_await body(pid, *vts[pid], thread);
        co_await world.rank(pid).finalize(thread);
      });
    }
    job->start();
    engine.run();
  }

  std::shared_ptr<image::SymbolTable> symbols;
  sim::Engine engine;
  machine::Cluster cluster;
  mpi::World world;
  std::unique_ptr<proc::ParallelJob> job;
  std::shared_ptr<vt::TraceStore> store;
  std::shared_ptr<vt::StagedUpdate> staged;
  std::vector<std::unique_ptr<vt::VtLib>> vts;
};

std::shared_ptr<image::SymbolTable> hot_cold_symbols() {
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main", "driver.c");
  symbols->add("hot_a", "box_loops.c");
  symbols->add("hot_b", "box_loops.c");
  symbols->add("cold_heavy", "solver.c");
  return symbols;
}

constexpr image::FunctionId kHotA = 1;
constexpr image::FunctionId kHotB = 2;
constexpr image::FunctionId kCold = 3;

// ---------------------------------------------------------------------------
// Estimator
// ---------------------------------------------------------------------------

TEST(OverheadEstimator, MeasuresPairsAndCost) {
  ControlHarness h(1, hot_cold_symbols());
  OverheadEstimator estimator;
  Estimate estimate;
  h.run([&](int, vt::VtLib& vt, proc::SimThread& thread) -> sim::Coro<void> {
    const Estimate first = estimator.update(vt, h.engine.now());
    EXPECT_EQ(first.window, 0) << "first update only primes the snapshot";
    const sim::TimeNs window_start = h.engine.now();
    for (int i = 0; i < 100; ++i) {
      co_await vt.vt_begin(thread, kHotA);
      co_await thread.compute(10'000);
      co_await vt.vt_end(thread, kHotA);
    }
    estimate = estimator.update(vt, h.engine.now());
    EXPECT_EQ(estimate.window, h.engine.now() - window_start);
  });
  ASSERT_EQ(estimate.functions.size(), 1u);
  const FunctionEstimate& fe = estimate.functions[0];
  EXPECT_EQ(fe.fn, kHotA);
  EXPECT_EQ(fe.pairs, 100u);
  EXPECT_EQ(fe.suppressed, 0u);
  EXPECT_GT(fe.current_cost, 0);
  EXPECT_EQ(fe.current_cost, fe.active_cost);
  EXPECT_LT(fe.residual_cost, fe.active_cost);
  EXPECT_GE(fe.mean_exclusive, 10'000);  // at least the modelled body work
  // ~3.5us of instrumentation against 10us of work per pair: the estimate
  // must land in that ballpark, not at 0% or pinned above 100%.
  const double fraction = estimate.overhead_fraction();
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.6);
}

TEST(OverheadEstimator, CountsSuppressedPairsUnderFilter) {
  ControlHarness h(1, hot_cold_symbols());
  OverheadEstimator estimator;
  Estimate estimate;
  h.run([&](int, vt::VtLib& vt, proc::SimThread& thread) -> sim::Coro<void> {
    vt.filter().apply(vt::CompiledFilter(*h.symbols, {{false, "hot_a"}}));
    estimator.update(vt, h.engine.now());
    for (int i = 0; i < 50; ++i) {
      co_await vt.vt_begin(thread, kHotA);
      co_await thread.compute(1'000);
      co_await vt.vt_end(thread, kHotA);
    }
    estimate = estimator.update(vt, h.engine.now());
  });
  ASSERT_EQ(estimate.functions.size(), 1u);
  const FunctionEstimate& fe = estimate.functions[0];
  EXPECT_EQ(fe.pairs, 0u);
  EXPECT_EQ(fe.suppressed, 50u);
  EXPECT_GT(fe.current_cost, 0);                 // residual lookup still paid
  EXPECT_GT(fe.active_cost, fe.current_cost);    // reactivation would cost more
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

/// One iteration per entry of `hot`: a hot one hammers the box_loops.c
/// pair, and every one runs the cold function.  A confsync safe point
/// closes every iteration.
void run_phases(ControlHarness& h, BudgetController& controller, std::vector<bool> hot) {
  controller.attach(*h.vts[0], h.staged);
  h.run([&, hot](int, vt::VtLib& vt, proc::SimThread& thread) -> sim::Coro<void> {
    for (const bool hot_iter : hot) {
      if (hot_iter) {
        for (int i = 0; i < 400; ++i) {
          co_await vt.vt_begin(thread, kHotA);
          co_await thread.compute(200);
          co_await vt.vt_end(thread, kHotA);
          co_await vt.vt_begin(thread, kHotB);
          co_await thread.compute(200);
          co_await vt.vt_end(thread, kHotB);
        }
      }
      co_await vt.vt_begin(thread, kCold);
      co_await thread.compute(sim::milliseconds(20));
      co_await vt.vt_end(thread, kCold);
      co_await vt.confsync(thread, /*write_statistics=*/true);
    }
  });
}

/// `hot_iters` hot iterations, then `quiet_iters` that run only the cold
/// function.
void run_hot_then_quiet(ControlHarness& h, BudgetController& controller, int hot_iters,
                        int quiet_iters) {
  std::vector<bool> hot(static_cast<std::size_t>(hot_iters), true);
  hot.resize(static_cast<std::size_t>(hot_iters + quiet_iters), false);
  run_phases(h, controller, std::move(hot));
}

TEST(BudgetController, DeactivatesHotModuleWhenOverBudget) {
  ControlHarness h(2, hot_cold_symbols());
  ControllerOptions options;
  options.budget_fraction = 0.03;
  BudgetController controller(options);
  run_hot_then_quiet(h, controller, /*hot_iters=*/4, /*quiet_iters=*/0);

  // Module grouping: both family members go together, on every rank.
  for (const auto& vt : h.vts) {
    EXPECT_TRUE(vt->filter().deactivated(kHotA));
    EXPECT_TRUE(vt->filter().deactivated(kHotB));
    EXPECT_FALSE(vt->filter().deactivated(kCold));
  }
  // The trail shows at least one decision that switched the module off and
  // projected the overhead back inside the budget.
  bool saw_deactivation = false;
  for (const auto& d : controller.log().decisions) {
    if (!d.deactivated.empty()) {
      saw_deactivation = true;
      EXPECT_GT(d.estimated_overhead, options.budget_fraction);
      EXPECT_LE(d.projected_overhead, options.budget_fraction);
    }
  }
  EXPECT_TRUE(saw_deactivation);
  // Deactivated-but-observable: the filter kept counting suppressed pairs.
  EXPECT_GT(h.vts[0]->statistics()[kHotA].filtered, 0u);
}

TEST(BudgetController, ReactivatesWhenHotPhaseEnds) {
  ControlHarness h(2, hot_cold_symbols());
  ControllerOptions options;
  options.budget_fraction = 0.03;
  options.min_dwell_syncs = 1;
  BudgetController controller(options);
  run_hot_then_quiet(h, controller, /*hot_iters=*/4, /*quiet_iters=*/6);

  // box_loops.c is reinstated once its call rate collapses.
  for (const auto& vt : h.vts) {
    EXPECT_FALSE(vt->filter().deactivated(kHotA));
    EXPECT_FALSE(vt->filter().deactivated(kHotB));
  }
  bool saw_reactivation = false;
  for (const auto& d : controller.log().decisions) {
    if (!d.reactivated.empty()) saw_reactivation = true;
  }
  EXPECT_TRUE(saw_reactivation);
}

TEST(BudgetController, AReactivatedGroupDwellsBeforeItIsCondemnedAgain) {
  ControlHarness h(2, hot_cold_symbols());
  ControllerOptions options;
  options.budget_fraction = 0.03;
  options.min_dwell_syncs = 2;
  BudgetController controller(options);
  // Hot, one quiet window (which reinstates the module), then hot again.
  std::vector<bool> hot(4, true);
  hot.push_back(false);
  hot.resize(8, true);
  run_phases(h, controller, hot);

  const std::vector<Decision>& decisions = controller.log().decisions;
  std::size_t reactivated = decisions.size();
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (!decisions[i].reactivated.empty()) {
      reactivated = i;
      break;
    }
  }
  ASSERT_LT(reactivated + 2, decisions.size());
  // The first window of the second hot phase is over budget, but the module
  // changed state one safe point ago: it dwells.  The next one condemns it.
  const Decision& dwell = decisions[reactivated + 1];
  EXPECT_GT(dwell.estimated_overhead, options.budget_fraction);
  EXPECT_TRUE(dwell.deactivated.empty());
  const Decision& again = decisions[reactivated + 2];
  EXPECT_EQ(again.deactivated, std::vector<std::string>{"box_loops.c"});
  for (const auto& vt : h.vts) {
    EXPECT_TRUE(vt->filter().deactivated(kHotA));
    EXPECT_TRUE(vt->filter().deactivated(kHotB));
  }
}

TEST(BudgetController, AFunctionWithoutAModuleIsAGroupOfItsOwn) {
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main", "driver.c");
  symbols->add("hot_a");
  symbols->add("hot_b");
  symbols->add("cold_heavy", "solver.c");
  ControlHarness h(2, symbols);
  ControllerOptions options;
  options.budget_fraction = 0.03;
  BudgetController controller(options);
  run_hot_then_quiet(h, controller, /*hot_iters=*/4, /*quiet_iters=*/0);

  // Each hot function is condemned by name, on its own evidence.
  std::vector<std::string> condemned;
  for (const auto& d : controller.log().decisions) {
    condemned.insert(condemned.end(), d.deactivated.begin(), d.deactivated.end());
  }
  std::sort(condemned.begin(), condemned.end());
  EXPECT_EQ(condemned, (std::vector<std::string>{"hot_a", "hot_b"}));
  EXPECT_TRUE(h.vts[0]->filter().deactivated(kHotA));
  EXPECT_TRUE(h.vts[0]->filter().deactivated(kHotB));
  EXPECT_FALSE(h.vts[0]->filter().deactivated(kCold));
}

TEST(BudgetController, StaysQuietUnderBudget) {
  ControlHarness h(2, hot_cold_symbols());
  ControllerOptions options;
  options.budget_fraction = 0.5;  // generous: nothing should trip it
  BudgetController controller(options);
  run_hot_then_quiet(h, controller, /*hot_iters=*/3, /*quiet_iters=*/0);

  for (const auto& vt : h.vts) {
    EXPECT_FALSE(vt->filter().deactivated(kHotA));
    EXPECT_FALSE(vt->filter().deactivated(kHotB));
  }
  for (const auto& d : controller.log().decisions) {
    EXPECT_TRUE(d.deactivated.empty());
    EXPECT_TRUE(d.reactivated.empty());
  }
}

// ---------------------------------------------------------------------------
// Mid-nest deactivate -> reactivate regression
// ---------------------------------------------------------------------------

TEST(BudgetController, MidNestToggleKeepsStatisticsStackBalanced) {
  // The filter flips `inner` off *between* its enter and its exit (sync 1),
  // and back on between a filtered enter and an active exit (sync 2).  Both
  // orphans must unwind without corrupting the enclosing frame, and the
  // stack must return to depth 0 at top level.
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main", "driver.c");
  const image::FunctionId outer = symbols->add("outer", "driver.c");
  const image::FunctionId inner = symbols->add("inner", "kernels.c");
  ControlHarness h(2, symbols);

  // Scripted staging from rank 0's configuration break, version-alternating
  // like the §5 experiment: sync 1 deactivates, sync 2 reactivates.
  h.vts[0]->set_break_handler([staged = h.staged](vt::VtLib&) -> sim::TimeNs {
    const bool deactivate = staged->version % 2 == 0;
    staged->program = {{!deactivate, "inner"}};
    ++staged->version;
    return 0;
  });

  h.run([&](int, vt::VtLib& vt, proc::SimThread& thread) -> sim::Coro<void> {
    // --- nest 1: inner is active at enter, deactivated before its exit.
    co_await vt.vt_begin(thread, outer);
    co_await vt.vt_begin(thread, inner);
    co_await thread.compute(5'000);
    co_await vt.confsync(thread);  // applies {deactivate inner}
    co_await vt.vt_end(thread, inner);  // filtered: frame goes stale
    co_await thread.compute(5'000);
    co_await vt.vt_end(thread, outer);  // unwinds the stale frame too
    EXPECT_EQ(vt.enter_stack_depth(thread.tid()), 0u);

    // --- nest 2: inner is deactivated at enter, reactivated before exit.
    co_await vt.vt_begin(thread, outer);
    co_await vt.vt_begin(thread, inner);  // filtered: no frame pushed
    co_await thread.compute(5'000);
    co_await vt.confsync(thread);  // applies {reactivate inner}
    co_await vt.vt_end(thread, inner);  // active exit with no matching frame
    co_await thread.compute(5'000);
    co_await vt.vt_end(thread, outer);
    EXPECT_EQ(vt.enter_stack_depth(thread.tid()), 0u);

    // --- nest 3: steady state, fully active again.
    co_await vt.vt_begin(thread, outer);
    co_await vt.vt_begin(thread, inner);
    co_await thread.compute(5'000);
    co_await vt.vt_end(thread, inner);
    co_await vt.vt_end(thread, outer);
    EXPECT_EQ(vt.enter_stack_depth(thread.tid()), 0u);
  });

  for (const auto& vt : h.vts) {
    const auto& stats = vt->statistics();
    // outer completed all three nests with sane timing.
    EXPECT_EQ(stats[outer].calls, 3u);
    EXPECT_GE(stats[outer].inclusive, stats[outer].exclusive);
    EXPECT_GT(stats[outer].exclusive, 0);
    // inner: nest 1 enter + nest 3 pair recorded, nest 2 enter + nest 1
    // exit filtered.  Only nest 3 completed a measured pair.
    EXPECT_EQ(stats[inner].calls, 2u);
    EXPECT_EQ(stats[inner].filtered, 2u);
    EXPECT_GT(stats[inner].inclusive, 0);
    EXPECT_LE(stats[inner].min_inclusive, stats[inner].max_inclusive);
  }
}

}  // namespace
}  // namespace dyntrace::control
