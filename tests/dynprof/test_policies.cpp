// End-to-end integration: run the ASCI kernels under every policy and
// check the paper's qualitative results hold (Figure 7's orderings).
#include <gtest/gtest.h>

#include "dynprof/policy.hpp"

namespace dyntrace::dynprof {
namespace {

PolicyResult run(const asci::AppSpec& app, Policy policy, int nprocs,
                 double scale = 0.25) {
  Launch::Options config;
  config.app = &app;
  config.policy = policy;
  config.params.nprocs = nprocs;
  config.params.problem_scale = scale;
  return run_policy(config);
}

TEST(Policies, NonePolicyRunsAndProducesMpiTraceOnly) {
  const auto r = run(asci::sppm(), Policy::kNone, 2);
  EXPECT_GT(r.app_seconds, 1.0);
  // MPI wrapper events exist even under None (VT is always linked in VGV)...
  EXPECT_GT(r.trace_events, 0u);
  // ...but no subroutine instrumentation was filtered or executed.
  EXPECT_EQ(r.filtered_events, 0u);
}

TEST(Policies, FullIsSlowerThanNone) {
  const auto full = run(asci::sppm(), Policy::kFull, 2);
  const auto none = run(asci::sppm(), Policy::kNone, 2);
  EXPECT_GT(full.app_seconds, none.app_seconds * 1.2);
  EXPECT_GT(full.trace_events, none.trace_events * 10);
}

TEST(Policies, FullOffSitsBetweenNoneAndFull) {
  const auto full = run(asci::sppm(), Policy::kFull, 2);
  const auto off = run(asci::sppm(), Policy::kFullOff, 2);
  const auto none = run(asci::sppm(), Policy::kNone, 2);
  EXPECT_LT(off.app_seconds, full.app_seconds);
  EXPECT_GT(off.app_seconds, none.app_seconds);
  // Everything was deactivated: lookups happened, no subroutine records.
  EXPECT_GT(off.filtered_events, 0u);
}

TEST(Policies, SubsetApproximatelyEqualsFullOff) {
  const auto off = run(asci::sppm(), Policy::kFullOff, 2);
  const auto subset = run(asci::sppm(), Policy::kSubset, 2);
  EXPECT_NEAR(subset.app_seconds / off.app_seconds, 1.0, 0.05);
}

TEST(Policies, DynamicIsCloseToNone) {
  const auto dynamic = run(asci::sppm(), Policy::kDynamic, 2);
  const auto none = run(asci::sppm(), Policy::kNone, 2);
  // "The Dynamic version ... sees an execution time that is very close to
  // None" (§4.3).
  EXPECT_NEAR(dynamic.app_seconds / none.app_seconds, 1.0, 0.10);
  EXPECT_GT(dynamic.create_instrument_seconds, 1.0);  // Fig 9: it is not free
}

TEST(Policies, DynamicBeatsSubsetClearly) {
  const auto dynamic = run(asci::sppm(), Policy::kDynamic, 2);
  const auto subset = run(asci::sppm(), Policy::kSubset, 2);
  EXPECT_LT(dynamic.app_seconds, subset.app_seconds);
}

TEST(Policies, Smg98FullOverheadIsExtreme) {
  const auto full = run(asci::smg98(), Policy::kFull, 2, 0.2);
  const auto none = run(asci::smg98(), Policy::kNone, 2, 0.2);
  // The full 7x shows at 64 CPUs; at 2 CPUs the ratio is already large.
  EXPECT_GT(full.app_seconds / none.app_seconds, 4.0);
}

TEST(Policies, Sweep3dPoliciesAreIndistinguishable) {
  const auto full = run(asci::sweep3d(), Policy::kFull, 2, 0.2);
  const auto none = run(asci::sweep3d(), Policy::kNone, 2, 0.2);
  const auto dynamic = run(asci::sweep3d(), Policy::kDynamic, 2, 0.2);
  EXPECT_NEAR(full.app_seconds / none.app_seconds, 1.0, 0.05);
  EXPECT_NEAR(dynamic.app_seconds / none.app_seconds, 1.0, 0.05);
}

TEST(Policies, Umt98RunsOpenMpUnderAllPolicies) {
  for (const Policy policy : policies_for(asci::umt98())) {
    const auto r = run(asci::umt98(), policy, 4, 0.2);
    EXPECT_GT(r.app_seconds, 0.5) << to_string(policy);
  }
}

TEST(Policies, Umt98StrongScalingDecreasesTime) {
  const auto t1 = run(asci::umt98(), Policy::kNone, 1, 0.2);
  const auto t8 = run(asci::umt98(), Policy::kNone, 8, 0.2);
  EXPECT_GT(t1.app_seconds, t8.app_seconds * 3.0);
}

TEST(Policies, Sweep3dStrongScalingDecreasesTime) {
  const auto t2 = run(asci::sweep3d(), Policy::kNone, 2, 0.2);
  const auto t16 = run(asci::sweep3d(), Policy::kNone, 16, 0.2);
  EXPECT_GT(t2.app_seconds, t16.app_seconds * 3.0);
}

TEST(Policies, WeakScalingSmg98TimeGrows) {
  const auto t1 = run(asci::smg98(), Policy::kNone, 1, 0.2);
  const auto t16 = run(asci::smg98(), Policy::kNone, 16, 0.2);
  EXPECT_GT(t16.app_seconds, t1.app_seconds * 1.2);
}

TEST(Policies, Sweep3dRejectsSingleProcess) {
  Launch::Options config;
  config.app = &asci::sweep3d();
  config.policy = Policy::kNone;
  config.params.nprocs = 1;
  EXPECT_THROW(run_policy(config), Error);
}

TEST(Policies, DeterministicAcrossRuns) {
  const auto a = run(asci::sppm(), Policy::kDynamic, 4, 0.2);
  const auto b = run(asci::sppm(), Policy::kDynamic, 4, 0.2);
  EXPECT_DOUBLE_EQ(a.app_seconds, b.app_seconds);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_DOUBLE_EQ(a.create_instrument_seconds, b.create_instrument_seconds);
}

TEST(Policies, CpuCountsMatchPaper) {
  EXPECT_EQ(cpu_counts_for(asci::smg98()), (std::vector<int>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(cpu_counts_for(asci::sweep3d()), (std::vector<int>{2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(cpu_counts_for(asci::umt98()), (std::vector<int>{1, 2, 4, 8}));
}

}  // namespace
}  // namespace dyntrace::dynprof
