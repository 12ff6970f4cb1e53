// MultiJobLaunch: heterogeneous jobs sharing one simulated cluster
// (DESIGN.md §15) -- shared-node tenancy, per-job tool sessions, job-scoped
// fault verbs, and scenario-wide run-to-run bit-identity.
#include <gtest/gtest.h>

#include <memory>

#include "dynprof/multi_job.hpp"
#include "fault/injector.hpp"
#include "replay/app.hpp"

namespace dyntrace::dynprof {
namespace {

constexpr double kScale = 0.1;

/// Two jobs sharing node 0: "front" (sppm, Dynamic) on CPUs 0-3, "back"
/// (sweep3d, Adaptive) on CPUs 4-7 of the same nodes.
MultiJobOptions two_job_options(const std::string& plan_text = {}) {
  MultiJobOptions options;
  if (!plan_text.empty()) {
    options.fault =
        std::make_shared<fault::FaultInjector>(fault::FaultPlan::parse(plan_text));
  }
  MultiJobOptions::Job front;
  front.app = asci::find_app("sppm");
  front.name = "front";
  front.params.nprocs = 4;
  front.params.problem_scale = kScale;
  front.policy = Policy::kDynamic;
  front.first_node = 0;
  front.first_cpu = 0;
  MultiJobOptions::Job back;
  back.app = asci::find_app("sweep3d");
  back.name = "back";
  back.params.nprocs = 4;
  back.params.problem_scale = kScale;
  back.policy = Policy::kAdaptive;
  back.first_node = 0;
  back.first_cpu = 4;
  options.jobs = {front, back};
  return options;
}

TEST(MultiJob, SharedNodeJobsCompleteAndReportPerJob) {
  MultiJobLaunch launch(two_job_options());
  // Both jobs span node 0 (4 one-cpu ranks each fit its 8 cpus), so the
  // node carries two tenants and messages touching it pay the surcharge.
  EXPECT_EQ(launch.cluster().node_tenants(0), 2);
  EXPECT_EQ(launch.job_count(), 2u);
  EXPECT_NE(launch.tool(0), nullptr);
  EXPECT_NE(launch.tool(1), nullptr);

  const MultiJobResult result = launch.run_to_completion();
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].job, "front");
  EXPECT_EQ(result.jobs[1].job, "back");
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.nprocs, 4) << job.job;
    EXPECT_GT(job.app_seconds, 0.0) << job.job;
    EXPECT_GT(job.trace_events, 0u) << job.job;
    EXPECT_GT(job.create_instrument_seconds, 0.0) << job.job;
    EXPECT_TRUE(job.lost_ranks.empty()) << job.job;
  }
  EXPECT_NE(result.jobs[0].trace_digest, result.jobs[1].trace_digest);
  EXPECT_GT(result.combined_digest, 0u);
}

TEST(MultiJob, ScenarioDigestIsBitIdenticalRunToRun) {
  // Run-to-run identity: two launches of one scenario agree bit for bit,
  // and with the pinned digest, so a change in how the jobs are armed or
  // started (and so in the order their first events run) shows up here.
  const MultiJobResult first = MultiJobLaunch(two_job_options()).run_to_completion();
  const MultiJobResult again = MultiJobLaunch(two_job_options()).run_to_completion();
  EXPECT_EQ(first.combined_digest, 0x0571c1b4d2a53a42ULL);
  EXPECT_EQ(first.combined_digest, again.combined_digest);
  for (std::size_t j = 0; j < first.jobs.size(); ++j) {
    EXPECT_EQ(first.jobs[j].trace_digest, again.jobs[j].trace_digest) << first.jobs[j].job;
    EXPECT_EQ(first.jobs[j].stats_digest, again.jobs[j].stats_digest) << first.jobs[j].job;
  }
}

TEST(MultiJob, CrossJobFaultPlanScopesToTheNamedJob) {
  // kill-rank job=back names the Adaptive job's rank space: its stats
  // reduction loses rank 1 while the front job keeps every rank.
  const std::string plan = "seed 7\nkill-rank rank=1 at=0 job=back\n";
  const MultiJobResult r = MultiJobLaunch(two_job_options(plan)).run_to_completion();
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_TRUE(r.jobs[0].lost_ranks.empty());
  EXPECT_EQ(r.jobs[1].lost_ranks, std::vector<int>{1});
}

TEST(MultiJob, UnscopedKillRankHitsEveryJobsRankSpace) {
  const MultiJobResult r =
      MultiJobLaunch(two_job_options("seed 7\nkill-rank rank=1 at=0\n"))
          .run_to_completion();
  EXPECT_EQ(r.jobs[0].lost_ranks, std::vector<int>{1});
  EXPECT_EQ(r.jobs[1].lost_ranks, std::vector<int>{1});
}

TEST(MultiJob, DegradedSharedNodeQuarantinesOnlyThatJobsTool) {
  // degrade-daemon is node-scoped and physical: node 0 hosts both jobs'
  // daemons.  Only the front job drives mid-run requests into it, so only
  // the front tool's breaker opens (quarantine), and nobody loses ranks.
  MultiJobOptions options = two_job_options("seed 17\ndegrade-daemon node=0 factor=200 from=0\n");
  options.jobs[0].script =
      "insert-file subset\nstart\nwait 5\ninsert-file subset\nquit\n";
  MultiJobLaunch launch(std::move(options));
  const MultiJobResult result = launch.run_to_completion();
  EXPECT_TRUE(result.jobs[0].lost_ranks.empty());
  EXPECT_TRUE(result.jobs[1].lost_ranks.empty());
  EXPECT_GE(launch.tool(0)->degradations().size(), 1u);
  EXPECT_GT(result.combined_digest, 0u);
}

TEST(MultiJob, ReplayJobSharesTheClusterWithAKernelJob) {
  const auto replay_app =
      replay::load_app(std::string(DYNTRACE_SOURCE_DIR) + "/examples/replay/ring.trace");

  auto make = [&] {
    MultiJobOptions options;
    MultiJobOptions::Job recorded;
    recorded.app = &replay_app->spec();
    recorded.name = "recorded";
    recorded.params.nprocs = replay_app->spec().min_procs;
    recorded.policy = Policy::kDynamic;
    recorded.first_node = 0;
    recorded.first_cpu = 0;
    MultiJobOptions::Job kernel;
    kernel.app = asci::find_app("sppm");
    kernel.name = "kernel";
    kernel.params.nprocs = 4;
    kernel.params.problem_scale = kScale;
    kernel.policy = Policy::kNone;
    kernel.first_node = 0;
    kernel.first_cpu = 4;
    options.jobs = {recorded, kernel};
    return options;
  };

  const MultiJobResult r = MultiJobLaunch(make()).run_to_completion();
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_GT(r.jobs[0].trace_events, 0u);
  EXPECT_GT(r.jobs[1].trace_events, 0u);
}

TEST(MultiJob, RejectsDuplicateJobNames) {
  MultiJobOptions options = two_job_options();
  options.jobs[1].name = "front";
  EXPECT_THROW(MultiJobLaunch{std::move(options)}, Error);
}

TEST(MultiJob, OneJobMatchesItsSoloRun) {
  // A MultiJobLaunch is a Launch on a borrowed cluster: one job with an
  // explicit seed, on the solo run's machine, is the solo run -- same
  // noise seed, no co-tenant surcharge, the tool on the next node up.
  constexpr std::uint64_t kSeed = 7;
  Launch::Options solo;
  solo.app = asci::find_app("sppm");
  solo.params.nprocs = 4;
  solo.params.problem_scale = kScale;
  solo.params.seed = kSeed;
  solo.policy = Policy::kDynamic;
  solo.machine = machine::ibm_power3_sp();
  const PolicyResult expected = run_policy(solo);

  MultiJobOptions options;
  options.seed = kSeed;
  options.machine = solo.machine;
  MultiJobOptions::Job job;
  job.app = solo.app;
  job.params = solo.params;
  job.policy = solo.policy;
  options.jobs = {job};
  const MultiJobResult result = MultiJobLaunch(std::move(options)).run_to_completion();
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].trace_digest, expected.trace_digest);
  EXPECT_EQ(result.jobs[0].stats_digest, expected.stats_digest);
  EXPECT_EQ(result.jobs[0].app_seconds, expected.app_seconds);
}

TEST(MultiJob, BorrowedClusterBringsItsOwnMachineAndFaults) {
  // A Launch on a scenario's cluster runs on its engine, under its fault
  // plan and into its registry, and takes no machine or plan of its own.
  MultiJobLaunch scenario(two_job_options("seed 7\nkill-rank rank=1 at=0 job=back\n"));
  Launch::Options options;
  options.app = asci::find_app("sppm");
  options.params.nprocs = 4;
  options.params.problem_scale = kScale;
  options.job_name = "third";
  options.first_app_node = 4;
  options.cluster = &scenario.cluster();
  options.machine = machine::ibm_power3_sp();
  EXPECT_THROW(Launch{options}, Error);
  options.machine.reset();
  options.fault = std::make_shared<fault::FaultInjector>(fault::FaultPlan{});
  EXPECT_THROW(Launch{options}, Error);
  options.fault.reset();
  telemetry::Registry* const scenario_registry = &telemetry::current();
  Launch borrowed(options);
  EXPECT_EQ(&borrowed.engine(), &scenario.cluster().engine());
  EXPECT_EQ(borrowed.fault_injector(), &scenario.cluster().fault_injector());
  // It installs no registry of its own: its hooks land in the scenario's.
  EXPECT_EQ(&telemetry::current(), scenario_registry);
  EXPECT_EQ(&borrowed.telemetry_registry(), scenario_registry);
}

TEST(MultiJob, PlanTargetsAreCheckedAgainstEveryJob) {
  // The scenario's substrate checks the plan once, against every job it
  // hosts: the back job has ranks 0-3, so rank 4 of it does not exist.
  EXPECT_THROW(MultiJobLaunch{two_job_options("kill-rank rank=4 at=0 job=back\n")}, Error);
  EXPECT_NO_THROW(MultiJobLaunch{two_job_options("kill-rank rank=3 at=0 job=back\n")});
}

}  // namespace
}  // namespace dyntrace::dynprof
