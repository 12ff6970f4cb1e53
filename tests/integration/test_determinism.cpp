// Whole-stack determinism and cross-policy invariants.
//
// The simulation's scientific value rests on bit-reproducibility: same
// configuration => identical traces, timings, and statistics, across the
// full dynprof pipeline.
#include <gtest/gtest.h>

#include "dynprof/policy.hpp"
#include "dynprof/tool.hpp"

namespace dyntrace::dynprof {
namespace {

std::vector<vt::Event> run_trace(const asci::AppSpec& app, Policy policy, int nprocs,
                                 std::uint64_t seed) {
  Launch::Options options;
  options.app = &app;
  options.params.nprocs = nprocs;
  options.params.problem_scale = 0.15;
  options.params.seed = seed;
  options.policy = policy;
  Launch launch(std::move(options));
  if (policy == Policy::kDynamic) {
    DynprofTool::Options topt;
    topt.command_files = {{"s", app.dynamic_list}};
    DynprofTool tool(launch, std::move(topt));
    tool.run_script(parse_script("insert-file s\nstart\nquit\n"));
    launch.engine().run();
  } else {
    launch.run_to_completion();
  }
  return launch.trace()->merged();
}

bool traces_identical(const std::vector<vt::Event>& a, const std::vector<vt::Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].pid != b[i].pid || a[i].tid != b[i].tid ||
        a[i].kind != b[i].kind || a[i].code != b[i].code || a[i].aux != b[i].aux) {
      return false;
    }
  }
  return true;
}

struct DetCase {
  const asci::AppSpec* app;
  Policy policy;
  int nprocs;
};

// Without a printer gtest dumps the raw bytes, so each case's full name
// would carry the AppSpec's address and drift with the link layout.
void PrintTo(const DetCase& c, std::ostream* os) {
  *os << c.app->name << '/' << to_string(c.policy) << '/' << c.nprocs;
}

class Determinism : public ::testing::TestWithParam<DetCase> {};

TEST_P(Determinism, IdenticalTracesForIdenticalConfigs) {
  const DetCase& c = GetParam();
  const auto a = run_trace(*c.app, c.policy, c.nprocs, 42);
  const auto b = run_trace(*c.app, c.policy, c.nprocs, 42);
  EXPECT_TRUE(traces_identical(a, b)) << c.app->name << "/" << to_string(c.policy);
  EXPECT_FALSE(a.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Determinism,
    ::testing::Values(DetCase{&asci::smg98(), Policy::kFull, 4},
                      DetCase{&asci::sppm(), Policy::kSubset, 4},
                      DetCase{&asci::sweep3d(), Policy::kDynamic, 4},
                      DetCase{&asci::umt98(), Policy::kFullOff, 4},
                      DetCase{&asci::umt98(), Policy::kDynamic, 2}),
    [](const ::testing::TestParamInfo<DetCase>& info) {
      std::string name = info.param.app->name + std::string("_") + to_string(info.param.policy);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DeterminismMore, DifferentSeedsProduceDifferentTimings) {
  const auto a = run_trace(asci::sppm(), Policy::kFull, 2, 1);
  const auto b = run_trace(asci::sppm(), Policy::kFull, 2, 2);
  // Same structure, different jitter: event counts match, times differ.
  EXPECT_EQ(a.size(), b.size());
  EXPECT_FALSE(traces_identical(a, b));
}

TEST(DeterminismMore, SubsetTraceEventsAreASubsetOfFulls) {
  // Every (pid, kind, code) subroutine event class in a Subset trace also
  // appears in the Full trace of the same run configuration.
  const auto subset = run_trace(asci::sppm(), Policy::kSubset, 2, 42);
  const auto full = run_trace(asci::sppm(), Policy::kFull, 2, 42);
  auto key_set = [](const std::vector<vt::Event>& events) {
    std::set<std::tuple<std::int32_t, int, std::int32_t>> keys;
    for (const auto& e : events) {
      if (e.kind == vt::EventKind::kEnter || e.kind == vt::EventKind::kLeave) {
        keys.insert({e.pid, static_cast<int>(e.kind), e.code});
      }
    }
    return keys;
  };
  const auto subset_keys = key_set(subset);
  const auto full_keys = key_set(full);
  for (const auto& k : subset_keys) {
    EXPECT_TRUE(full_keys.count(k)) << "subset traced something Full did not";
  }
  EXPECT_LT(subset_keys.size(), full_keys.size());
}

TEST(DeterminismMore, EnterLeaveAlwaysBalancedPerThread) {
  for (const Policy policy : {Policy::kFull, Policy::kSubset, Policy::kDynamic}) {
    const auto events = run_trace(asci::sppm(), policy, 3, 42);
    std::map<std::pair<std::int32_t, std::int32_t>, int> depth;
    for (const auto& e : events) {
      const auto key = std::make_pair(e.pid, e.tid);
      if (e.kind == vt::EventKind::kEnter) ++depth[key];
      if (e.kind == vt::EventKind::kLeave) {
        const int d = --depth[key];
        EXPECT_GE(d, 0) << to_string(policy);
      }
    }
    for (const auto& [k, d] : depth) EXPECT_EQ(d, 0) << to_string(policy);
  }
}

TEST(DeterminismMore, TimesAreMonotonePerProcess) {
  const auto events = run_trace(asci::smg98(), Policy::kFull, 2, 42);
  std::map<std::int32_t, sim::TimeNs> last;
  for (const auto& e : events) {
    auto it = last.find(e.pid);
    if (it != last.end()) {
      EXPECT_GE(e.time, it->second);
    }
    last[e.pid] = e.time;
  }
}

TEST(DeterminismMore, MsgSendsEqualMsgRecvsJobWide) {
  const auto events = run_trace(asci::sweep3d(), Policy::kNone, 4, 42);
  std::int64_t sends = 0, recvs = 0, bytes_sent = 0, bytes_received = 0;
  for (const auto& e : events) {
    if (e.kind == vt::EventKind::kMsgSend) {
      ++sends;
      bytes_sent += e.aux;
    }
    if (e.kind == vt::EventKind::kMsgRecv) {
      ++recvs;
      bytes_received += e.aux;
    }
  }
  EXPECT_GT(sends, 0);
  EXPECT_EQ(sends, recvs);
  EXPECT_EQ(bytes_sent, bytes_received);
}

TEST(DeterminismMore, MismatchedReceiveIsDiagnosedAsDeadlock) {
  // A rank waiting for a message nobody sends must surface as a named
  // deadlock, not a hang.
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  mpi::World world(cluster);
  proc::ParallelJob job(cluster, "mismatched");
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main");
  for (int pid = 0; pid < 2; ++pid) {
    world.add_rank(job.add_process(image::ProgramImage(symbols), 0, pid));
  }
  job.set_main(0, [&world](proc::SimThread& t) -> sim::Coro<void> {
    co_await world.rank(0).init(t);
    co_await world.rank(0).recv(t, 1, /*tag=*/999, nullptr);  // never sent
  });
  job.set_main(1, [&world](proc::SimThread& t) -> sim::Coro<void> {
    co_await world.rank(1).init(t);
  });
  job.start();
  try {
    engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("rank0"), std::string::npos) << e.what();
  }
}

/// One run_policy cell at seed 42; two calls must agree bit for bit.
PolicyResult run_cell(const asci::AppSpec& app, Policy policy, int nprocs, double scale) {
  RunConfig config;
  config.app = &app;
  config.policy = policy;
  config.nprocs = nprocs;
  config.problem_scale = scale;
  config.seed = 42;
  return run_policy(config);
}

void expect_identical(const PolicyResult& a, const PolicyResult& b) {
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.stats_digest, b.stats_digest);
  EXPECT_DOUBLE_EQ(a.app_seconds, b.app_seconds);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_DOUBLE_EQ(a.create_instrument_seconds, b.create_instrument_seconds);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.filtered_events, b.filtered_events);
  EXPECT_EQ(a.confsyncs, b.confsyncs);
  ASSERT_EQ(a.decisions.decisions.size(), b.decisions.decisions.size());
  for (std::size_t i = 0; i < a.decisions.decisions.size(); ++i) {
    const auto& da = a.decisions.decisions[i];
    const auto& db = b.decisions.decisions[i];
    EXPECT_EQ(da.sync, db.sync);
    EXPECT_EQ(da.time, db.time);
    EXPECT_EQ(da.deactivated, db.deactivated);
    EXPECT_EQ(da.reactivated, db.reactivated);
  }
}

TEST(DeterminismMore, AdaptiveSmg98RunToRunIdentical) {
  // The full adaptive control plane -- dynamic instrumentation, confsync
  // safe points, the budget controller, and the stats-reduction overlay --
  // at 64 ranks, decisions included.
  const PolicyResult first = run_cell(asci::smg98(), Policy::kAdaptive, 64, 0.05);
  EXPECT_GT(first.trace_events, 0u);
  EXPECT_GT(first.confsyncs, 0u);
  expect_identical(first, run_cell(asci::smg98(), Policy::kAdaptive, 64, 0.05));
}

TEST(DeterminismMore, MixedModeRunToRunIdentical) {
  const PolicyResult first = run_cell(asci::umt98(), Policy::kFull, 4, 0.2);
  EXPECT_GT(first.trace_events, 0u);
  expect_identical(first, run_cell(asci::umt98(), Policy::kFull, 4, 0.2));
}

TEST(DeterminismMore, FullAppPolicyMatrixSmoke) {
  // Every (app, policy) combination runs to completion at small scale.
  for (const asci::AppSpec* app : asci::all_apps()) {
    for (const Policy policy : policies_for(*app)) {
      const int nprocs = std::max(2, app->min_procs);
      const auto events = run_trace(*app, policy, nprocs, 7);
      EXPECT_FALSE(events.empty()) << app->name << "/" << to_string(policy);
    }
  }
}

}  // namespace
}  // namespace dyntrace::dynprof
