// Launch wiring: policy -> image/filter state, placement, VT plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dynprof/launch.hpp"
#include "support/strings.hpp"

namespace dyntrace::dynprof {
namespace {

Launch make(const asci::AppSpec& app, Policy policy, int nprocs) {
  Launch::Options options;
  options.app = &app;
  options.params.nprocs = nprocs;
  options.params.problem_scale = 0.1;
  options.policy = policy;
  return Launch(std::move(options));
}

TEST(Launch, PolicyNamesRoundTripAndUnknownNamesAreErrors) {
  for (const PolicyInfo& info : policy_table()) {
    EXPECT_STREQ(to_string(info.policy), info.name);
    EXPECT_EQ(policy_from_string(info.name), info.policy);
  }
  EXPECT_EQ(policy_from_string("full-off"), Policy::kFullOff);  // case-insensitive
  EXPECT_STREQ(to_string(static_cast<Policy>(99)), "?");
  EXPECT_THROW(policy_from_string("sometimes"), Error);
}

TEST(Launch, FullPolicyInstrumentsAllUserFunctions) {
  auto launch = make(asci::sppm(), Policy::kFull, 2);
  const auto& img = launch.job().process(0).image();
  EXPECT_EQ(img.static_instrumented_count(), asci::sppm().user_function_count());
  // Runtime entry points are never statically instrumented.
  EXPECT_FALSE(img.static_instrumented(img.symbols().find("MPI_Init")->id));
}

TEST(Launch, NoneAndDynamicPoliciesHaveNoStaticInstrumentation) {
  for (const Policy policy : {Policy::kNone, Policy::kDynamic}) {
    auto launch = make(asci::sppm(), policy, 2);
    EXPECT_EQ(launch.job().process(0).image().static_instrumented_count(), 0u)
        << to_string(policy);
  }
}

TEST(Launch, FullOffFilterDeactivatesEverythingAtInit) {
  auto launch = make(asci::sppm(), Policy::kFullOff, 2);
  launch.run_to_completion();
  // After VT_init the filter is enabled and every user function is off.
  const auto& vt = launch.vt(0);
  EXPECT_TRUE(vt.filter().enabled());
  EXPECT_GE(vt.filter().deactivated_count(), asci::sppm().user_function_count());
}

TEST(Launch, SubsetFilterLeavesSubsetActive) {
  auto launch = make(asci::sppm(), Policy::kSubset, 2);
  launch.run_to_completion();
  const auto& vt = launch.vt(0);
  const auto& symbols = *asci::sppm().symbols;
  for (const auto& name : asci::sppm().subset) {
    EXPECT_FALSE(vt.filter().deactivated(symbols.find(name)->id)) << name;
  }
  EXPECT_TRUE(vt.filter().deactivated(symbols.find("sppm_intrfc_00")->id));
}

TEST(Launch, SubsetConfigFilterCompilesOncePerJob) {
  // 1024 ranks, one compilation: every rank applies the job's delta at
  // VT_init instead of matching the config file against its symbols.
  const asci::AppSpec& wide = asci::smg98();
  Launch::Options options;
  options.app = &wide;
  options.params.nprocs = 1024;
  options.params.problem_scale = 0.01;
  options.policy = Policy::kSubset;
  options.telemetry_level = telemetry::Level::kCounters;
  Launch launch(std::move(options));
  const auto compiles = [&launch] {
    return launch.telemetry_registry().snapshot().counter_value("vt.filter_compiles");
  };
  EXPECT_EQ(compiles(), 1u);
  launch.run_to_completion();
  EXPECT_EQ(compiles(), 1u);
  const std::size_t off = launch.vt(0).filter().deactivated_count();
  EXPECT_EQ(off, wide.symbols->size() - wide.subset.size());
  for (int pid = 0; pid < launch.process_count(); ++pid) {
    ASSERT_TRUE(launch.vt(pid).filter().enabled()) << pid;
    ASSERT_EQ(launch.vt(pid).filter().deactivated_count(), off) << pid;
  }
}

TEST(Launch, CollectedRunExportsVtEventCounts) {
  Launch::Options options;
  options.app = &asci::sppm();
  options.params.nprocs = 2;
  options.params.problem_scale = 0.1;
  options.policy = Policy::kFull;
  options.telemetry_level = telemetry::Level::kCounters;
  Launch launch(std::move(options));
  launch.run_to_completion();
  std::uint64_t recorded = 0;
  std::uint64_t pairs = 0;
  for (int pid = 0; pid < launch.process_count(); ++pid) {
    recorded += launch.vt(pid).events_recorded();
    pairs += launch.vt(pid).synthetic_pairs();
  }
  ASSERT_GT(recorded, 0u);
  ASSERT_GT(pairs, 0u);
  // Collecting again adds nothing: the counters are the libraries' totals.
  launch.collect_result();
  const auto snap = launch.telemetry_registry().snapshot();
  EXPECT_EQ(snap.counter_value("vt.events_recorded"), recorded);
  EXPECT_EQ(snap.counter_value("vt.synthetic_pairs"), pairs);
  EXPECT_EQ(launch.collect_result().trace_events, recorded + 2 * pairs);
}

TEST(Launch, SubsetPolicyForSweep3dRejected) {
  Launch::Options options;
  options.app = &asci::sweep3d();
  options.params.nprocs = 2;
  options.policy = Policy::kSubset;
  EXPECT_THROW(Launch{std::move(options)}, Error);
}

TEST(Launch, MpiRanksFillNodesBlockwise) {
  auto launch = make(asci::smg98(), Policy::kNone, 10);
  EXPECT_EQ(launch.job().process(0).node(), 0);
  EXPECT_EQ(launch.job().process(7).node(), 0);
  EXPECT_EQ(launch.job().process(8).node(), 1);
  EXPECT_EQ(launch.process_count(), 10);
  EXPECT_NE(launch.world(), nullptr);
  EXPECT_EQ(launch.omp_runtime(), nullptr);
}

TEST(Launch, OpenMpAppIsOneProcessWithTeam) {
  auto launch = make(asci::umt98(), Policy::kNone, 6);
  EXPECT_EQ(launch.process_count(), 1);
  EXPECT_EQ(launch.world(), nullptr);
  ASSERT_NE(launch.omp_runtime(), nullptr);
  EXPECT_EQ(launch.omp_runtime()->num_threads(), 6);
  EXPECT_EQ(launch.job().process(0).threads().size(), 6u);
}

TEST(Launch, AllRanksShareOneTraceStoreAndStagedUpdate) {
  auto launch = make(asci::sppm(), Policy::kFull, 3);
  launch.run_to_completion();
  EXPECT_GT(launch.trace()->size(), 0u);
  // Events from every rank are in the single store.
  for (int pid = 0; pid < 3; ++pid) {
    EXPECT_FALSE(launch.trace()->for_process(pid).empty()) << "rank " << pid;
  }
}

TEST(Launch, InitTriggerFiresWithTimestamp) {
  auto launch = make(asci::sppm(), Policy::kNone, 2);
  EXPECT_FALSE(launch.init_complete_trigger().fired());
  EXPECT_EQ(launch.init_complete_time(), -1);
  launch.run_to_completion();
  EXPECT_TRUE(launch.init_complete_trigger().fired());
  EXPECT_GT(launch.init_complete_time(), 0);
}

TEST(Launch, RejectsOutOfRangeProcessCounts) {
  Launch::Options options;
  options.app = &asci::umt98();
  options.params.nprocs = 9;  // one SMP node has 8 CPUs
  options.policy = Policy::kNone;
  EXPECT_THROW(Launch{std::move(options)}, Error);
}

TEST(Launch, RejectsNonFiniteOrNonPositiveScale) {
  // Unchecked, a non-finite scale reaches llround and runs as if it were tiny.
  for (const double scale : {-1.0, 0.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    Launch::Options options;
    options.app = &asci::sweep3d();
    options.params.nprocs = 2;
    options.params.problem_scale = scale;
    options.policy = Policy::kNone;
    try {
      Launch launch(std::move(options));
      FAIL() << "scale " << scale << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("sweep3d"), std::string::npos) << what;
      EXPECT_NE(what.find("problem scale"), std::string::npos) << what;
    }
  }
}

TEST(Launch, RejectsAScaleWhoseIterationCountDoesNotFit) {
  // An iteration count past int64 once reached llround out of range and ran
  // as a single iteration (smg98 on 8 ranks recorded 32 events, not 116).
  for (const double scale : {1e308, 1e30}) {
    Launch::Options options;
    options.app = &asci::smg98();
    options.params.nprocs = 8;
    options.params.problem_scale = scale;
    options.policy = Policy::kNone;
    Launch launch(std::move(options));
    try {
      launch.run_to_completion();
      FAIL() << "scale " << scale << " ran";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("smg98"), std::string::npos) << what;
      EXPECT_NE(what.find("problem scale " + str::format("%g", scale)), std::string::npos)
          << what;
    }
  }
}

TEST(Launch, MpiAppsRunPastThePaperCeilingOnAGrownMachine) {
  // max_procs (64) is paper metadata for MPI apps: 128 ranks run on the
  // default machine, and 1200 ranks grow it node for node.
  auto paper_machine = make(asci::smg98(), Policy::kNone, 128);
  EXPECT_EQ(paper_machine.cluster().spec().name, "ibm-power3-sp");
  auto grown = make(asci::smg98(), Policy::kNone, 1200);
  EXPECT_EQ(grown.cluster().spec().nodes, 1200 / 8 + 1);
  EXPECT_EQ(grown.cluster().spec().name, "ibm-power3-sp-x151");
  EXPECT_EQ(grown.process_count(), 1200);
}

TEST(Launch, CustomMachineProfileIsUsed) {
  Launch::Options options;
  options.app = &asci::sppm();
  options.params.nprocs = 2;
  options.params.problem_scale = 0.1;
  options.policy = Policy::kNone;
  options.machine = machine::ia32_linux_cluster();
  Launch launch(std::move(options));
  EXPECT_EQ(launch.cluster().spec().name, "ia32-linux");
  // 1 cpu per node: the two ranks land on different nodes.
  EXPECT_EQ(launch.job().process(0).node(), 0);
  EXPECT_EQ(launch.job().process(1).node(), 1);
}

TEST(Launch, ResultMetricsAreConsistent) {
  auto launch = make(asci::sppm(), Policy::kFull, 2);
  const auto result = launch.run_to_completion();
  EXPECT_GT(result.total_seconds, result.app_seconds);  // init takes time
  EXPECT_GT(result.trace_events, 0u);
  EXPECT_EQ(result.filtered_events, 0u);  // Full: nothing filtered
}

}  // namespace
}  // namespace dyntrace::dynprof
