// Mixed MPI/OpenMP applications (the paper's headline use case, Figure 4).
#include <gtest/gtest.h>

#include "dynprof/policy.hpp"
#include "dynprof/tool.hpp"

namespace dyntrace::dynprof {
namespace {

Launch make_hybrid(Policy policy, int ranks, int threads) {
  Launch::Options options;
  options.app = &asci::sweep3d_hybrid();
  options.params.nprocs = ranks;
  options.params.threads_per_rank = threads;
  options.params.problem_scale = 0.15;
  options.policy = policy;
  return Launch(std::move(options));
}

TEST(MixedMode, EveryRankGetsAnOmpTeam) {
  auto launch = make_hybrid(Policy::kNone, 4, 3);
  EXPECT_EQ(launch.process_count(), 4);
  ASSERT_NE(launch.world(), nullptr);
  for (int pid = 0; pid < 4; ++pid) {
    ASSERT_NE(launch.omp_runtime(pid), nullptr) << pid;
    EXPECT_EQ(launch.omp_runtime(pid)->num_threads(), 3);
    EXPECT_EQ(launch.job().process(pid).threads().size(), 3u);
  }
}

TEST(MixedMode, PlacementPacksTeamsOntoNodes) {
  // 4 ranks x 4 threads on 8-cpu nodes: two ranks per node.
  auto launch = make_hybrid(Policy::kNone, 4, 4);
  EXPECT_EQ(launch.job().process(0).node(), 0);
  EXPECT_EQ(launch.job().process(1).node(), 0);
  EXPECT_EQ(launch.job().process(1).main_thread().cpu(), 4);
  EXPECT_EQ(launch.job().process(2).node(), 1);
}

TEST(MixedMode, RunsToCompletionWithBothEventKinds) {
  auto launch = make_hybrid(Policy::kFull, 2, 4);
  launch.run_to_completion();
  bool saw_mpi = false, saw_omp = false, saw_fn = false;
  for (const auto& e : launch.trace()->merged()) {
    saw_mpi = saw_mpi || e.kind == vt::EventKind::kMpiBegin;
    saw_omp = saw_omp || e.kind == vt::EventKind::kParallelBegin;
    saw_fn = saw_fn || e.kind == vt::EventKind::kEnter;
  }
  EXPECT_TRUE(saw_mpi);
  EXPECT_TRUE(saw_omp);
  EXPECT_TRUE(saw_fn);
}

TEST(MixedMode, ThreadsSpeedUpTheSweep) {
  const double t1 = [] {
    auto launch = make_hybrid(Policy::kNone, 2, 1);
    return launch.run_to_completion().app_seconds;
  }();
  const double t4 = [] {
    auto launch = make_hybrid(Policy::kNone, 2, 4);
    return launch.run_to_completion().app_seconds;
  }();
  EXPECT_GT(t1, t4 * 2.0);
}

TEST(MixedMode, DynprofInstrumentsMixedApps) {
  // The paper's Figure 4 pipeline: dynprof drives the mixed-mode run.
  auto launch = make_hybrid(Policy::kDynamic, 4, 2);
  DynprofTool::Options topt;
  topt.command_files = {{"all", asci::sweep3d_hybrid().dynamic_list}};
  DynprofTool tool(launch, std::move(topt));
  tool.run_script(parse_script("insert-file all\nstart\nquit\n"));
  launch.engine().run();
  EXPECT_TRUE(tool.finished());
  // Probe events from worker threads exist (tid > 0): instrumentation of
  // code executing inside parallel regions works on the shared image.
  bool worker_event = false;
  for (const auto& e : launch.trace()->merged()) {
    if (e.kind == vt::EventKind::kEnter && e.tid > 0) worker_event = true;
  }
  EXPECT_TRUE(worker_event);
}

TEST(MixedMode, ThreadsPerRankOnPureMpiAppRejected) {
  Launch::Options options;
  options.app = &asci::sppm();
  options.params.nprocs = 2;
  options.params.threads_per_rank = 4;
  options.policy = Policy::kNone;
  EXPECT_THROW(Launch{std::move(options)}, Error);
}

TEST(MixedMode, HybridAppInRegistryButNotInTable2) {
  EXPECT_EQ(asci::find_app("sweep3d-hybrid"), &asci::sweep3d_hybrid());
  EXPECT_EQ(asci::all_apps().size(), 4u);  // the evaluation set stays the paper's
  EXPECT_EQ(asci::sweep3d_hybrid().model, asci::AppSpec::Model::kMixed);
  EXPECT_EQ(asci::sweep3d_hybrid().user_function_count(),
            asci::sweep3d().user_function_count());
}

}  // namespace
}  // namespace dyntrace::dynprof
