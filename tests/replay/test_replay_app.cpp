// ReplayApp end-to-end: the shipped sample trace runs through every
// instrumentation policy with digests bit-identical run to run, and the
// fault-matrix control-plane columns hold on a replayed app.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "dynprof/policy.hpp"
#include "dynprof/tool.hpp"
#include "fault/injector.hpp"
#include "replay/app.hpp"

namespace dyntrace::replay {
namespace {

/// The shipped sample (examples/replay/ring.trace), found from the common
/// ctest working directories (same idiom as tests/machine/test_configs).
std::string sample_path(const std::string& name) {
  for (const char* prefix : {"../../examples/replay/", "../../../examples/replay/",
                             "examples/replay/", "../examples/replay/"}) {
    const std::string path = prefix + name;
    if (std::ifstream(path).good()) return path;
  }
  ADD_FAILURE() << "cannot locate examples/replay/" << name;
  return name;
}

std::shared_ptr<ReplayApp> load_ring() { return load_app(sample_path("ring.trace")); }

TEST(ReplayApp, WrapsTheTraceAsAPinnedAppSpec) {
  const auto app = load_ring();
  const asci::AppSpec& spec = app->spec();
  EXPECT_EQ(spec.name, "ring");
  EXPECT_EQ(spec.min_procs, 4);
  EXPECT_EQ(spec.max_procs, 4);
  EXPECT_EQ(spec.model, asci::AppSpec::Model::kMpi);
  EXPECT_EQ(spec.subset, (std::vector<std::string>{"ring_compute", "ring_reduce"}));
  EXPECT_EQ(spec.dynamic_list, spec.subset);
  // main + MPI_Init + MPI_Finalize + 4 call functions.
  EXPECT_EQ(spec.symbols->all().size(), 7u);
  EXPECT_EQ(app->trace().skipped_events, 4u);  // one MPI_Comm_rank per rank
}

dynprof::PolicyResult run_ring(const asci::AppSpec& spec, dynprof::Policy policy) {
  dynprof::RunConfig config;
  config.app = &spec;
  config.policy = policy;
  config.nprocs = spec.min_procs;
  return dynprof::run_policy(config);
}

class ReplayPolicies : public ::testing::TestWithParam<dynprof::Policy> {};

TEST_P(ReplayPolicies, DigestsAreBitIdenticalAcrossSimThreads) {
  const auto app = load_ring();
  // Run-to-run identity.
  const dynprof::PolicyResult first = run_ring(app->spec(), GetParam());
  EXPECT_GT(first.trace_digest, 0u);
  EXPECT_GT(first.app_seconds, 0.0);
  const dynprof::PolicyResult again = run_ring(app->spec(), GetParam());
  EXPECT_EQ(first.trace_digest, again.trace_digest);
  EXPECT_EQ(first.stats_digest, again.stats_digest);
  EXPECT_EQ(first.trace_events, again.trace_events);
}

INSTANTIATE_TEST_SUITE_P(Policies, ReplayPolicies,
                         ::testing::Values(dynprof::Policy::kNone,
                                           dynprof::Policy::kSubset,
                                           dynprof::Policy::kDynamic,
                                           dynprof::Policy::kAdaptive));

TEST(ReplayApp, SubsetPolicySeesOnlyTheSubsetFunctions) {
  const auto app = load_ring();
  const dynprof::PolicyResult full = run_ring(app->spec(), dynprof::Policy::kFull);
  const dynprof::PolicyResult subset = run_ring(app->spec(), dynprof::Policy::kSubset);
  // ring_setup/ring_teardown are outside the subset directive.
  EXPECT_LT(subset.trace_events, full.trace_events);
  EXPECT_GT(subset.trace_events, 0u);
}

/// The fault-matrix column for replayed apps: control-plane faults during a
/// Dynamic run of the sample trace, deterministic run to run.
struct FaultCell {
  bool tool_finished = false;
  std::uint64_t digest = 0;
  std::string report;
  std::vector<int> lost_ranks;
};

FaultCell run_fault_cell(const asci::AppSpec& spec, const std::string& plan_text) {
  auto injector =
      std::make_shared<fault::FaultInjector>(fault::FaultPlan::parse(plan_text));
  dynprof::Launch::Options options;
  options.app = &spec;
  options.params.nprocs = spec.min_procs;
  options.policy = dynprof::Policy::kDynamic;
  options.fault = injector;
  dynprof::Launch launch(std::move(options));

  dynprof::DynprofTool::Options topt;
  topt.command_files = {{"subset", spec.dynamic_list}};
  dynprof::DynprofTool tool(launch, std::move(topt));
  tool.run_script(dynprof::parse_script("insert-file subset\nstart\nquit\n"));
  launch.engine().run();

  FaultCell cell;
  cell.tool_finished = tool.finished();
  cell.digest = launch.trace()->digest();
  cell.report = injector->report().render();
  cell.lost_ranks = injector->report().lost_ranks();
  return cell;
}

class ReplayFaultMatrix : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplayFaultMatrix, ControlPlaneFaultsStayDeterministic) {
  const auto app = load_ring();
  const FaultCell first = run_fault_cell(app->spec(), GetParam());
  EXPECT_TRUE(first.tool_finished);
  EXPECT_TRUE(first.lost_ranks.empty());
  EXPECT_GT(first.digest, 0u);
  const FaultCell again = run_fault_cell(app->spec(), GetParam());
  EXPECT_EQ(first.digest, again.digest);
  EXPECT_EQ(first.report, again.report);
}

INSTANTIATE_TEST_SUITE_P(
    Plans, ReplayFaultMatrix,
    ::testing::Values("seed 12\ndrop channel=daemon prob=0.05\n",
                      "seed 13\ndup channel=daemon prob=0.5\n",
                      "seed 14\ndelay channel=daemon factor=10 prob=1.0\n"));

TEST(ReplayApp, PingpongSampleParsesAndRuns) {
  const auto app = load_app(sample_path("pingpong.trace"));
  EXPECT_EQ(app->spec().min_procs, 2);
  const dynprof::PolicyResult r = run_ring(app->spec(), dynprof::Policy::kFull);
  EXPECT_GT(r.trace_events, 0u);
  EXPECT_GT(r.app_seconds, 0.0);
}

}  // namespace
}  // namespace dyntrace::replay
