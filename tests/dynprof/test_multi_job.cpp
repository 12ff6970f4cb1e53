// MultiJobLaunch: heterogeneous jobs sharing one simulated cluster
// (DESIGN.md §15) -- shared-node tenancy, per-job tool sessions, job-scoped
// fault verbs, and scenario-wide run-to-run bit-identity.
#include <gtest/gtest.h>

#include <fstream>
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

TEST(MultiJob, ScenarioDigestIsBitIdenticalAcrossSimThreads) {
  // Run-to-run identity: two launches of one scenario agree bit for bit.
  const MultiJobResult first = MultiJobLaunch(two_job_options()).run_to_completion();
  const MultiJobResult again = MultiJobLaunch(two_job_options()).run_to_completion();
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
      "insert-file subset.txt\nstart\nwait 5\ninsert-file subset.txt\nquit\n";
  MultiJobLaunch launch(std::move(options));
  const MultiJobResult result = launch.run_to_completion();
  EXPECT_TRUE(result.jobs[0].lost_ranks.empty());
  EXPECT_TRUE(result.jobs[1].lost_ranks.empty());
  EXPECT_GE(launch.tool(0)->degradations().size(), 1u);
  EXPECT_GT(result.combined_digest, 0u);
}

TEST(MultiJob, ReplayJobSharesTheClusterWithAKernelJob) {
  const auto trace_path = [] {
    for (const char* prefix : {"../../examples/replay/", "../../../examples/replay/",
                               "examples/replay/", "../examples/replay/"}) {
      const std::string path = std::string(prefix) + "ring.trace";
      if (std::ifstream(path).good()) return path;
    }
    return std::string("ring.trace");
  }();
  const auto replay_app = replay::load_app(trace_path);

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

}  // namespace
}  // namespace dyntrace::dynprof
