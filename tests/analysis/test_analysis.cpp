#include <gtest/gtest.h>

#include "analysis/profile.hpp"
#include "analysis/timeline.hpp"
#include "dynprof/policy.hpp"

namespace dyntrace::analysis {
namespace {

vt::Event ev(sim::TimeNs time, std::int32_t pid, vt::EventKind kind, std::int32_t code = 0,
             std::int64_t aux = 0) {
  vt::Event e;
  e.time = time;
  e.pid = pid;
  e.tid = 0;
  e.kind = kind;
  e.code = code;
  e.aux = aux;
  return e;
}

TEST(Profile, ComputesInclusiveAndExclusiveTimes) {
  vt::TraceStore store;
  // fn 0: [0, 100]; fn 1 nested: [20, 50].
  store.append(ev(0, 0, vt::EventKind::kEnter, 0));
  store.append(ev(20, 0, vt::EventKind::kEnter, 1));
  store.append(ev(50, 0, vt::EventKind::kLeave, 1));
  store.append(ev(100, 0, vt::EventKind::kLeave, 0));

  TraceAnalyzer analyzer(store);
  const ProcessProfile* p = analyzer.process(0);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->functions.size(), 2u);
  EXPECT_EQ(p->functions[0].fn, 0u);  // sorted by inclusive desc
  EXPECT_EQ(p->functions[0].inclusive, 100);
  EXPECT_EQ(p->functions[0].exclusive, 70);
  EXPECT_EQ(p->functions[1].inclusive, 30);
  EXPECT_EQ(p->functions[1].exclusive, 30);
  EXPECT_EQ(p->unmatched_leaves, 0u);
}

TEST(Profile, CountsRecursiveAndRepeatedCalls) {
  vt::TraceStore store;
  for (int i = 0; i < 3; ++i) {
    store.append(ev(i * 100, 0, vt::EventKind::kEnter, 7));
    store.append(ev(i * 100 + 40, 0, vt::EventKind::kLeave, 7));
  }
  TraceAnalyzer analyzer(store);
  const auto& fp = analyzer.process(0)->functions.at(0);
  EXPECT_EQ(fp.calls, 3u);
  EXPECT_EQ(fp.inclusive, 120);
}

TEST(Profile, UnmatchedLeavesAreCountedNotFatal) {
  vt::TraceStore store;
  store.append(ev(10, 0, vt::EventKind::kLeave, 5));
  TraceAnalyzer analyzer(store);
  EXPECT_EQ(analyzer.process(0)->unmatched_leaves, 1u);
}

TEST(Profile, MessageStatsAggregate) {
  vt::TraceStore store;
  store.append(ev(1, 0, vt::EventKind::kMsgSend, 1, 1000));
  store.append(ev(2, 0, vt::EventKind::kMsgSend, 1, 500));
  store.append(ev(3, 1, vt::EventKind::kMsgRecv, 0, 1500));
  store.append(ev(4, 0, vt::EventKind::kMpiBegin, 4));
  store.append(ev(9, 0, vt::EventKind::kMpiEnd, 4));
  TraceAnalyzer analyzer(store);
  EXPECT_EQ(analyzer.process(0)->messages.sends, 2u);
  EXPECT_EQ(analyzer.process(0)->messages.bytes_sent, 1500);
  EXPECT_EQ(analyzer.process(1)->messages.recvs, 1u);
  EXPECT_EQ(analyzer.process(0)->messages.mpi_calls, 1u);
  EXPECT_EQ(analyzer.process(0)->messages.mpi_time, 5);
  const auto total = analyzer.aggregate();
  EXPECT_EQ(total.messages.sends, 2u);
  EXPECT_EQ(total.messages.recvs, 1u);
}

TEST(Profile, AggregateMergesAcrossProcesses) {
  vt::TraceStore store;
  for (int pid = 0; pid < 3; ++pid) {
    store.append(ev(0, pid, vt::EventKind::kEnter, 1));
    store.append(ev(50, pid, vt::EventKind::kLeave, 1));
  }
  TraceAnalyzer analyzer(store);
  const auto total = analyzer.aggregate();
  ASSERT_EQ(total.functions.size(), 1u);
  EXPECT_EQ(total.functions[0].calls, 3u);
  EXPECT_EQ(total.functions[0].inclusive, 150);
}

TEST(Profile, TopFunctionsTableRendersNames) {
  vt::TraceStore store;
  store.append(ev(0, 0, vt::EventKind::kEnter, 0));
  store.append(ev(10, 0, vt::EventKind::kLeave, 0));
  image::SymbolTable symbols;
  symbols.add("my_solver");
  TraceAnalyzer analyzer(store);
  const std::string table = analyzer.top_functions_table(&symbols, 5);
  EXPECT_NE(table.find("my_solver"), std::string::npos);
}

TEST(Timeline, EmptyTraceRendersEmpty) {
  vt::TraceStore store;
  EXPECT_EQ(render_timeline(store), "");
}

TEST(Timeline, RendersOneRowPerProcess) {
  vt::TraceStore store;
  for (int pid = 0; pid < 3; ++pid) {
    store.append(ev(0, pid, vt::EventKind::kEnter, 1));
    store.append(ev(1000, pid, vt::EventKind::kLeave, 1));
  }
  const std::string text = render_timeline(store);
  EXPECT_NE(text.find("3 process(es)"), std::string::npos);
  EXPECT_NE(text.find("0 |"), std::string::npos);
  EXPECT_NE(text.find("2 |"), std::string::npos);
}

TEST(Timeline, MpiPhasesWinOverCompute) {
  vt::TraceStore store;
  store.append(ev(0, 0, vt::EventKind::kEnter, 1));
  store.append(ev(500, 0, vt::EventKind::kMpiBegin, 4));
  store.append(ev(1000, 0, vt::EventKind::kMpiEnd, 4));
  store.append(ev(1000, 0, vt::EventKind::kLeave, 1));
  const std::string text = render_timeline(store);
  EXPECT_NE(text.find('M'), std::string::npos);
  EXPECT_NE(text.find('='), std::string::npos);
}

TEST(Timeline, OpenMpRegionsPaintTheirOwnCells) {
  vt::TraceStore store;
  store.append(ev(0, 0, vt::EventKind::kEnter, 1));
  store.append(ev(100, 0, vt::EventKind::kParallelBegin, 7));
  vt::Event worker = ev(100, 0, vt::EventKind::kWorkerBegin, 7);
  worker.tid = 1;
  store.append(worker);
  store.append(ev(500, 0, vt::EventKind::kMarker, 0));  // a point event paints nothing new
  worker.time = 900;
  worker.kind = vt::EventKind::kWorkerEnd;
  store.append(worker);
  store.append(ev(900, 0, vt::EventKind::kParallelEnd, 7));
  store.append(ev(1000, 0, vt::EventKind::kLeave, 1));
  const std::string text = render_timeline(store);
  EXPECT_NE(text.find("'o'=OpenMP"), std::string::npos) << text;
  const std::string row = text.substr(text.find("0 |"));
  EXPECT_NE(row.find('o'), std::string::npos) << text;
  EXPECT_NE(row.find('='), std::string::npos) << text;
  EXPECT_EQ(row.find('M'), std::string::npos) << text;
}

TEST(Profile, AnUnknownProcessHasNoProfile) {
  vt::TraceStore store;
  store.append(ev(0, 0, vt::EventKind::kEnter, 1));
  store.append(ev(10, 0, vt::EventKind::kLeave, 1));
  const TraceAnalyzer analyzer(store);
  EXPECT_NE(analyzer.process(0), nullptr);
  EXPECT_EQ(analyzer.process(42), nullptr);
}

TEST(Integration, EndToEndTraceIsAnalyzable) {
  // Run sppm under Subset and analyse its real trace: the subset functions
  // appear; the deactivated ones do not.
  dynprof::Launch::Options options;
  options.app = &asci::sppm();
  options.params.nprocs = 2;
  options.params.problem_scale = 0.15;
  options.policy = dynprof::Policy::kSubset;
  dynprof::Launch launch(std::move(options));
  launch.run_to_completion();

  TraceAnalyzer analyzer(*launch.trace());
  ASSERT_EQ(analyzer.processes().size(), 2u);
  const auto total = analyzer.aggregate();
  const auto& symbols = *asci::sppm().symbols;
  bool saw_subset_fn = false;
  for (const auto& fp : total.functions) {
    const auto& name = symbols.at(fp.fn).name;
    EXPECT_TRUE(name == "main" || symbols.at(fp.fn).module != "sppm_interp.f")
        << "deactivated helper " << name << " leaked into the trace";
    for (const auto& s : asci::sppm().subset) {
      if (name == s) saw_subset_fn = true;
    }
  }
  EXPECT_TRUE(saw_subset_fn);
  EXPECT_GT(total.messages.mpi_calls, 0u);
  // The timeline renders without issue.
  EXPECT_FALSE(render_timeline(*launch.trace()).empty());
}

}  // namespace
}  // namespace dyntrace::analysis
