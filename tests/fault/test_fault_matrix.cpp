// The adversarial fault matrix (satellite 3): {daemon kill, daemon flap,
// daemon degrade, message drop, message dup, 10x delay, torn shard} x
// {smg98, sweep3d} at 64 ranks.  For
// every cell the run must terminate, the degradation must be reported with
// the affected ranks, and the surviving traces must merge to a digest that
// is bit-identical run to run for a fixed plan + seed.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "dynprof/tool.hpp"
#include "fault/injector.hpp"

namespace dyntrace::dynprof {
namespace {

constexpr int kRanks = 64;
constexpr double kScale = 0.15;

/// Post-release kill times.  Without faults smg98 releases at ~123.3s and
/// sweep3d at ~121.3s, and with the mid-run insert their mains run
/// ~13.5s / ~8.9s beyond that.  The kill lands between release and the
/// mid-run insert (release + 5s) so the dead daemon is discovered by a
/// live application.
const char* kill_time_for(const std::string& app) {
  return app == "smg98" ? "126s" : "124s";
}

struct MatrixResult {
  bool tool_finished = false;
  std::uint64_t digest = 0;
  sim::TimeNs create_and_instrument = 0;
  std::uint64_t daemon_drops = 0;
  std::string report;
  std::vector<int> lost_ranks;
  std::size_t degradations = 0;
  vt::TraceStore::SalvageStats salvage;
};

/// Run one cell; the tool must finish its script whatever the plan breaks.
/// No plan text runs the cell without a plan.
MatrixResult run_cell(const std::string& app_name,
                      const std::optional<std::string>& plan_text,
                      const std::string& script_text,
                      std::size_t spill_bytes = 0, double scale = kScale) {
  const asci::AppSpec* app = asci::find_app(app_name);
  EXPECT_NE(app, nullptr);
  std::shared_ptr<fault::FaultInjector> injector;
  if (plan_text.has_value()) {
    injector = std::make_shared<fault::FaultInjector>(fault::FaultPlan::parse(*plan_text));
  }

  Launch::Options options;
  options.app = app;
  options.params.nprocs = kRanks;
  options.params.problem_scale = scale;
  options.policy = Policy::kDynamic;
  options.trace_spill_bytes = spill_bytes;
  options.trace_spill_dir = ::testing::TempDir();
  options.fault = injector;
  options.telemetry_level = telemetry::Level::kCounters;
  Launch launch(std::move(options));

  DynprofTool::Options topt;
  topt.command_files = {{"subset", app->dynamic_list}};
  DynprofTool tool(launch, std::move(topt));
  tool.run_script(parse_script(script_text));
  launch.engine().run();

  MatrixResult result;
  result.tool_finished = tool.finished();
  result.digest = launch.trace()->digest();
  result.create_and_instrument = tool.create_and_instrument_time();
  result.daemon_drops = launch.telemetry_registry().snapshot().counter_value("fault.drops");
  result.report = launch.fault_injector()->report().render();
  result.lost_ranks = launch.fault_injector()->report().lost_ranks();
  result.degradations = tool.degradations().size();
  result.salvage = launch.trace()->salvage_stats();
  EXPECT_TRUE(result.tool_finished) << app_name;
  return result;
}

constexpr const char* kPlainScript = "insert-file subset\nstart\nquit\n";
/// The mid-run insert is what drives requests into a daemon killed after
/// release (wait is relative to the end of create+instrument).
constexpr const char* kMidRunScript =
    "insert-file subset\nstart\nwait 5\ninsert-file subset\nquit\n";

class FaultMatrix : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultMatrix, DaemonKillDegradesAndTerminates) {
  const std::string plan =
      std::string("seed 11\nkill-daemon node=2 at=") + kill_time_for(GetParam()) + "\n";
  const MatrixResult r = run_cell(GetParam(), plan, kMidRunScript);
  // Node 2's ranks are abandoned, marked lost, and named in the report.
  EXPECT_FALSE(r.lost_ranks.empty());
  EXPECT_NE(r.report.find("daemon-lost"), std::string::npos);
  EXPECT_NE(r.report.find("degrade"), std::string::npos);
  EXPECT_GE(r.degradations, 1u);
  EXPECT_GT(r.digest, 0u);  // survivors still produced a merged trace
}

TEST_P(FaultMatrix, FlappingDaemonIsQuarantinedNotAbandoned) {
  // The gray-failure column (DESIGN.md §14): the daemon flaps into a dead
  // window that swallows the mid-run insert.  Every retry and the follow-up
  // half-open probe miss, so the breaker opens and the node is quarantined
  // (Dynamic -> Subset, reversible) -- but never abandoned: a flapping
  // daemon is sick, not gone, so its ranks must not be marked lost.
  const std::string plan = std::string("seed 16\nflap-daemon node=2 period=300s ") +
                           "downtime=150s from=" + kill_time_for(GetParam()) + "\n";
  const MatrixResult r = run_cell(GetParam(), plan, kMidRunScript);
  EXPECT_TRUE(r.lost_ranks.empty());
  EXPECT_NE(r.report.find("breaker-open"), std::string::npos);
  EXPECT_NE(r.report.find("breaker-probe"), std::string::npos);
  EXPECT_NE(r.report.find("(quarantine)"), std::string::npos);
  EXPECT_EQ(r.report.find("daemon-lost"), std::string::npos);
  EXPECT_GE(r.degradations, 1u);
  EXPECT_GT(r.digest, 0u);
}

TEST_P(FaultMatrix, DegradedDaemonOpensBreakerOnScoreAlone) {
  // A 200x-slow daemon still answers inside the 20s deadline (patch
  // requests are ~25ms healthy), so there is never a miss -- the breaker
  // must open purely from the EWMA latency score sinking below the floor.
  // No losses, no abandonment, and the slow node is quarantined mid-insert.
  const std::string plan = std::string("seed 17\ndegrade-daemon node=2 factor=200 ") +
                           "from=" + kill_time_for(GetParam()) + "\n";
  const MatrixResult r = run_cell(GetParam(), plan, kMidRunScript);
  EXPECT_TRUE(r.lost_ranks.empty());
  EXPECT_NE(r.report.find("breaker-open"), std::string::npos);
  EXPECT_EQ(r.report.find("daemon-lost"), std::string::npos);
  EXPECT_GT(r.digest, 0u);
}

TEST_P(FaultMatrix, MessageDropsAreRetriedThrough) {
  // Low enough that no node ever exhausts its retries for this seed: the
  // run must come out whole, with every drop absorbed by a retry.  (An
  // abandonment before release would leave its ranks spinning and hang the
  // re-synchronizing barrier -- the documented collective-semantics limit.)
  const MatrixResult r = run_cell(
      GetParam(), "seed 12\ndrop channel=daemon prob=0.05\n", kPlainScript);
  EXPECT_TRUE(r.lost_ranks.empty());
  EXPECT_GT(r.digest, 0u);
}

TEST_P(FaultMatrix, DuplicatedMessagesAreIdempotent) {
  const MatrixResult r = run_cell(
      GetParam(), "seed 13\ndup channel=daemon prob=0.5\n", kPlainScript);
  // Duplicate requests dedup on their id, duplicate acks are absorbed by
  // per-attempt ack states: no losses, no degradation.
  EXPECT_TRUE(r.lost_ranks.empty());
  EXPECT_EQ(r.degradations, 0u);
  EXPECT_GT(r.digest, 0u);
}

TEST_P(FaultMatrix, TenfoldDelaysOnlySlowTheControlPlane) {
  const MatrixResult r = run_cell(
      GetParam(), "seed 14\ndelay channel=daemon factor=10 prob=1.0\n", kPlainScript);
  EXPECT_TRUE(r.lost_ranks.empty());
  EXPECT_GT(r.digest, 0u);
}

TEST_P(FaultMatrix, TornShardSalvagesAndMerges) {
  // Salvage is block-granular: a run of one and a half blocks (6144
  // records) torn in its second block keeps the whole first block.  The
  // scale is raised until rank 3 logs that many records.
  const bool smg98 = std::string(GetParam()) == "smg98";
  const MatrixResult r = run_cell(
      GetParam(), "seed 15\ntear-shard rank=3 spill=0 keep=0.85\n", kPlainScript,
      /*spill_bytes=*/6144 * sizeof(vt::Event), /*scale=*/smg98 ? 4.0 : 0.3);
  EXPECT_EQ(r.salvage.torn_shards, 1u);
  EXPECT_EQ(r.salvage.salvaged_records, vt::kBlockRecords);
  EXPECT_GT(r.salvage.lost_records, 0u);
  EXPECT_NE(r.report.find("shard-torn"), std::string::npos);
  EXPECT_GT(r.digest, 0u);
}

TEST_P(FaultMatrix, TornShardV2SalvageIsBlockGranular) {
  // Salvage is block-granular: a 64-record run is a single block, so a
  // tear that keeps only half its bytes loses the whole run -- but the job
  // still terminates and the merge skips the torn tail.
  const MatrixResult r = run_cell(
      GetParam(), "seed 15\ntear-shard rank=3 spill=0 keep=0.5\n", kPlainScript,
      /*spill_bytes=*/std::size_t{1} << 11);
  EXPECT_EQ(r.salvage.torn_shards, 1u);
  EXPECT_EQ(r.salvage.salvaged_records, 0u);  // mid-block tear: nothing salvable
  EXPECT_GT(r.salvage.lost_records, 0u);
  EXPECT_NE(r.report.find("shard-torn"), std::string::npos);
  EXPECT_GT(r.digest, 0u);
}

INSTANTIATE_TEST_SUITE_P(Apps, FaultMatrix, ::testing::Values("smg98", "sweep3d"));

TEST(FaultMatrixBaseline, EmptyPlanFiresNothingAndStaysDeterministic) {
  // An installed injector whose plan never fires must report nothing, lose
  // nothing, and replay to the same trace.
  const MatrixResult r = run_cell("smg98", "seed 1\n", kPlainScript);
  EXPECT_TRUE(r.report.empty());
  EXPECT_TRUE(r.lost_ranks.empty());
  EXPECT_EQ(r.degradations, 0u);
  EXPECT_EQ(r.salvage.torn_shards, 0u);
  const MatrixResult again = run_cell("smg98", "seed 1\n", kPlainScript);
  EXPECT_EQ(again.digest, r.digest);
}

TEST(FaultMatrixBaseline, NoPlanAndAnEmptyPlanAreOneRun) {
  // There is one control-plane protocol: a run without a plan uses the
  // cluster's empty-plan injector, so installing an empty plan changes
  // nothing -- not the trace, not the create+instrument time, and the
  // report stays empty.  A mid-run insert drives the steady-state path.
  const MatrixResult none = run_cell("smg98", std::nullopt, kMidRunScript);
  const MatrixResult empty = run_cell("smg98", "seed 1\n", kMidRunScript);
  EXPECT_EQ(none.digest, empty.digest);
  EXPECT_EQ(none.create_and_instrument, empty.create_and_instrument);
  EXPECT_TRUE(none.report.empty());
  EXPECT_TRUE(empty.report.empty());
}

TEST(FaultMatrixBaseline, DropsAndDupsDoNotSerializeTheControlPlane) {
  // The benchmark's daemon drop/dup plan: broadcasts stay pipelined, and a
  // lost request or ack is resent once the round's majority has acked
  // instead of stalling the round until the 20s deadline.
  const MatrixResult healthy = run_cell("smg98", std::nullopt, kPlainScript);
  const MatrixResult faulted = run_cell(
      "smg98", "seed 42\ndrop channel=daemon prob=0.002\ndup channel=daemon prob=0.002\n",
      kPlainScript);
  EXPECT_GT(faulted.daemon_drops, 0u);
  EXPECT_TRUE(faulted.lost_ranks.empty());
  EXPECT_LE(static_cast<double>(faulted.create_and_instrument),
            1.10 * static_cast<double>(healthy.create_and_instrument));
}

TEST(FaultMatrixBaseline, PlanNamingAMissingNodeIsRejectedAtLaunch) {
  Launch::Options options;
  options.app = &asci::smg98();
  options.params.nprocs = 8;
  options.policy = Policy::kDynamic;
  options.fault = std::make_shared<fault::FaultInjector>(
      fault::FaultPlan::parse("kill-daemon node=99999 at=5s\n", "huge.plan"));
  try {
    Launch launch(std::move(options));
    FAIL() << "expected the plan to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("huge.plan:1"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace dyntrace::dynprof
