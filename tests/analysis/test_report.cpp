#include <gtest/gtest.h>

#include <random>

#include "analysis/report.hpp"

#include "dynprof/policy.hpp"
#include "support/table.hpp"

namespace dyntrace::analysis {
namespace {

vt::Event ev(sim::TimeNs time, std::int32_t pid, vt::EventKind kind, std::int32_t code = 0,
             std::int64_t aux = 0) {
  vt::Event e;
  e.time = time;
  e.pid = pid;
  e.kind = kind;
  e.code = code;
  e.aux = aux;
  return e;
}

TEST(CommMatrix, AccumulatesBytesBySrcDst) {
  vt::TraceStore store;
  store.append(ev(1, 0, vt::EventKind::kMsgSend, 1, 1000));
  store.append(ev(2, 0, vt::EventKind::kMsgSend, 1, 500));
  store.append(ev(3, 1, vt::EventKind::kMsgSend, 2, 2048));
  store.append(ev(4, 2, vt::EventKind::kEnter, 0));  // widens nprocs to 3
  const CommMatrix matrix = communication_matrix(store);
  EXPECT_EQ(matrix.nprocs, 3);
  EXPECT_EQ(matrix.at(0, 1), 1500);
  EXPECT_EQ(matrix.at(1, 2), 2048);
  EXPECT_EQ(matrix.at(2, 0), 0);
  EXPECT_EQ(matrix.total(), 3548);
  const std::string rendered = matrix.render();
  EXPECT_NE(rendered.find("src\\dst"), std::string::npos);
}

TEST(CommMatrix, ASendPastTheLastProcessGrowsTheMatrix) {
  vt::TraceStore store;
  store.append(ev(1, 0, vt::EventKind::kMsgSend, 1, 100));
  store.append(ev(2, 1, vt::EventKind::kMsgSend, 3, 50));  // peer 3: no events of its own
  const CommMatrix matrix = communication_matrix(store);
  EXPECT_EQ(matrix.nprocs, 4);
  EXPECT_EQ(matrix.at(0, 1), 100);  // kept across the relayout
  EXPECT_EQ(matrix.at(1, 3), 50);
  EXPECT_EQ(matrix.total(), 150);
}

TEST(CommMatrix, EmptyTrace) {
  vt::TraceStore store;
  const CommMatrix matrix = communication_matrix(store);
  EXPECT_EQ(matrix.nprocs, 0);
  EXPECT_EQ(matrix.total(), 0);
}

TEST(CommMatrix, RenderMatchesTextTable) {
  // The render writes TextTable's layout by hand; a TextTable built here
  // is the reference.  Cells near 2^62 bytes make columns wider than their
  // header, and a rare negative cell widens one by its sign.  At 1001 ranks
  // the matrix is sparse, as a nearest-neighbour exchange is, so most
  // columns are all zero and their 4-digit header is the widest entry.
  std::mt19937_64 rng(0x5eed);
  for (const int nprocs : {0, 1, 2, 9, 10, 11, 99, 100, 101, 257, 1001}) {
    const bool sparse = nprocs > 1000;
    for (int trial = 0; trial < (sparse ? 1 : 5); ++trial) {
      CommMatrix matrix;
      matrix.nprocs = nprocs;
      matrix.bytes.resize(static_cast<std::size_t>(nprocs) * nprocs);
      for (std::int64_t& cell : matrix.bytes) {
        const std::uint64_t r = rng();
        if (rng() % (sparse ? 1024 : 2) != 0) {
          cell = 0;
        } else if (r % 8 < 5) {
          cell = static_cast<std::int64_t>(r % (std::uint64_t{1} << (r % 40)));
        } else if (r % 8 < 7) {
          cell = (std::int64_t{1} << 62) - static_cast<std::int64_t>(r % (1u << 20));
        } else {
          cell = -static_cast<std::int64_t>(r % 100'000);
        }
      }
      std::vector<std::string> headers{"src\\dst (KiB)"};
      for (int dst = 0; dst < nprocs; ++dst) headers.push_back(std::to_string(dst));
      TextTable table(std::move(headers));
      for (int src = 0; src < nprocs; ++src) {
        std::vector<std::string> row{std::to_string(src)};
        for (int dst = 0; dst < nprocs; ++dst) {
          row.push_back(TextTable::num(static_cast<double>(matrix.at(src, dst)) / 1024.0, 1));
        }
        table.add_row(std::move(row));
      }
      ASSERT_EQ(matrix.render(), table.render()) << nprocs << " ranks, trial " << trial;
    }
  }
}

TEST(LoadBalance, PerfectBalanceIsOne) {
  vt::TraceStore store;
  for (int pid = 0; pid < 4; ++pid) {
    store.append(ev(0, pid, vt::EventKind::kEnter, 1));
    store.append(ev(sim::seconds(2), pid, vt::EventKind::kLeave, 1));
  }
  const LoadBalance balance = load_balance(store);
  ASSERT_EQ(balance.busy_seconds.size(), 4u);
  EXPECT_DOUBLE_EQ(balance.mean, 2.0);
  EXPECT_DOUBLE_EQ(balance.imbalance, 1.0);
}

TEST(LoadBalance, StragglerRaisesImbalance) {
  vt::TraceStore store;
  for (int pid = 0; pid < 4; ++pid) {
    store.append(ev(0, pid, vt::EventKind::kEnter, 1));
    store.append(ev(sim::seconds(pid == 3 ? 4 : 1), pid, vt::EventKind::kLeave, 1));
  }
  const LoadBalance balance = load_balance(store);
  EXPECT_DOUBLE_EQ(balance.max, 4.0);
  EXPECT_DOUBLE_EQ(balance.min, 1.0);
  EXPECT_NEAR(balance.imbalance, 4.0 / 1.75, 1e-9);
}

TEST(LoadBalance, MpiTimeCountsAsBusy) {
  vt::TraceStore store;
  store.append(ev(0, 0, vt::EventKind::kMpiBegin, 4));
  store.append(ev(sim::seconds(3), 0, vt::EventKind::kMpiEnd, 4));
  const LoadBalance balance = load_balance(store);
  ASSERT_EQ(balance.busy_seconds.size(), 1u);
  EXPECT_DOUBLE_EQ(balance.busy_seconds[0], 3.0);
}

TEST(SummaryReport, ContainsAllSections) {
  vt::TraceStore store;
  image::SymbolTable symbols;
  symbols.add("kernel");
  for (int pid = 0; pid < 2; ++pid) {
    store.append(ev(0, pid, vt::EventKind::kEnter, 0));
    store.append(ev(sim::seconds(1), pid, vt::EventKind::kLeave, 0));
    store.append(ev(100, pid, vt::EventKind::kMsgSend, 1 - pid, 4096));
  }
  const std::string report = summary_report(store, &symbols);
  EXPECT_NE(report.find("trace summary"), std::string::npos);
  EXPECT_NE(report.find("kernel"), std::string::npos);
  EXPECT_NE(report.find("communication matrix"), std::string::npos);
  EXPECT_NE(report.find("load balance"), std::string::npos);
}

/// 64 ranks of nested calls, halo sends to two peers, MPI spans, OpenMP
/// regions on every eighth rank (master plus two workers on their own
/// threads) and a stray leave -- every section of the report, the
/// 64 x 64 communication matrix included.  Built from a local LCG.
vt::TraceStore golden_store() {
  vt::TraceStore store;
  std::uint64_t lcg = 2718281828u;
  const auto next = [&lcg](std::int64_t bound) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::int64_t>((lcg >> 33) % static_cast<std::uint64_t>(bound));
  };
  const auto at = [](sim::TimeNs t, std::int32_t pid, std::int32_t tid, vt::EventKind kind,
                     std::int32_t code, std::int64_t aux = 0) {
    vt::Event e = ev(t, pid, kind, code, aux);
    e.tid = tid;
    return e;
  };
  constexpr int kRanks = 64;
  for (std::int32_t pid = 0; pid < kRanks; ++pid) {
    sim::TimeNs t = 1000 + pid * 7;
    store.append(at(t, pid, 0, vt::EventKind::kEnter, 0));
    for (int step = 0; step < 40; ++step) {
      const std::int32_t fn = 1 + static_cast<std::int32_t>(next(3));
      store.append(at(t += 50, pid, 0, vt::EventKind::kEnter, fn));
      for (const std::int32_t peer : {(pid + 1) % kRanks, (pid + 7) % kRanks}) {
        store.append(at(t += 10 + next(20), pid, 0, vt::EventKind::kMpiBegin, 3));
        store.append(at(t += 5, pid, 0, vt::EventKind::kMsgSend, peer, 512 + next(8192)));
        store.append(at(t += 200 + next(900), pid, 0, vt::EventKind::kMpiEnd, 3, 64));
        store.append(at(t += 15, pid, 0, vt::EventKind::kMsgRecv, peer, 512));
      }
      if (pid % 8 == 0 && step % 10 == 0) {
        const std::int32_t region = 100 + step / 10;
        store.append(at(t += 30, pid, 0, vt::EventKind::kParallelBegin, region, 3));
        for (const std::int32_t tid : {1, 2}) {
          store.append(at(t + 5 * tid, pid, tid, vt::EventKind::kWorkerBegin, region));
          store.append(at(t + 400 + next(300), pid, tid, vt::EventKind::kWorkerEnd, region));
        }
        store.append(at(t += 800, pid, 0, vt::EventKind::kParallelEnd, region));
      }
      store.append(at(t += 100 + next(5000 + pid * 40), pid, 0, vt::EventKind::kLeave, fn));
    }
    if (pid == 5) store.append(at(t += 3, pid, 0, vt::EventKind::kLeave, 9));  // unmatched
    store.append(at(t += 10, pid, 0, vt::EventKind::kLeave, 0));
  }
  return store;
}

// FNV-1a of summary_report(golden_store()), recorded before the analysis
// replayed per-process cursors and formatted cells with std::to_chars.
constexpr std::uint64_t kGoldenReportHash = 0x8a78e4e740824213ull;
constexpr std::size_t kGoldenReportChars = 31408;

TEST(SummaryReport, GoldenTextOf64RankTrace) {
  image::SymbolTable symbols;
  for (const char* name : {"main", "sweep", "flux", "source"}) symbols.add(name);
  const std::string report = summary_report(golden_store(), &symbols);
  EXPECT_NE(report.find("communication matrix:"), std::string::npos);
  EXPECT_NE(report.find("OpenMP parallel regions:"), std::string::npos);
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : report) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  EXPECT_EQ(report.size(), kGoldenReportChars);
  EXPECT_EQ(h, kGoldenReportHash) << std::hex << h;
}

TEST(OmpRegions, ProfilesMasterAndWorkerSpans) {
  vt::TraceStore store;
  // Region 5 executed twice: master spans 100 + 200; one worker 80 + 150.
  store.append(ev(0, 0, vt::EventKind::kParallelBegin, 5, /*team=*/4));
  store.append(ev(10, 0, vt::EventKind::kWorkerBegin, 5));
  store.append(ev(90, 0, vt::EventKind::kWorkerEnd, 5));
  store.append(ev(100, 0, vt::EventKind::kParallelEnd, 5));
  store.append(ev(1000, 0, vt::EventKind::kParallelBegin, 5, 4));
  store.append(ev(1010, 0, vt::EventKind::kWorkerBegin, 5));
  store.append(ev(1160, 0, vt::EventKind::kWorkerEnd, 5));
  store.append(ev(1200, 0, vt::EventKind::kParallelEnd, 5));
  const auto profiles = omp_region_profiles(store);
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].region_id, 5);
  EXPECT_EQ(profiles[0].executions, 2u);
  EXPECT_EQ(profiles[0].master_span, 300);
  EXPECT_EQ(profiles[0].worker_span, 230);
  EXPECT_EQ(profiles[0].max_team_size, 4);
}

TEST(OmpRegions, SortedByMasterSpanDescending) {
  vt::TraceStore store;
  store.append(ev(0, 0, vt::EventKind::kParallelBegin, 1, 2));
  store.append(ev(50, 0, vt::EventKind::kParallelEnd, 1));
  store.append(ev(100, 0, vt::EventKind::kParallelBegin, 2, 2));
  store.append(ev(900, 0, vt::EventKind::kParallelEnd, 2));
  const auto profiles = omp_region_profiles(store);
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].region_id, 2);
  EXPECT_EQ(profiles[1].region_id, 1);
  const std::string table = render_omp_regions(profiles);
  EXPECT_NE(table.find("master span"), std::string::npos);
}

TEST(OmpRegions, RealUmt98TraceHasRegionProfiles) {
  dynprof::Launch::Options options;
  options.app = &asci::umt98();
  options.params.nprocs = 4;
  options.params.problem_scale = 0.2;
  options.policy = dynprof::Policy::kNone;
  dynprof::Launch launch(std::move(options));
  launch.run_to_completion();
  const auto profiles = omp_region_profiles(*launch.trace());
  ASSERT_FALSE(profiles.empty());
  std::uint64_t executions = 0;
  for (const auto& p : profiles) {
    executions += p.executions;
    EXPECT_EQ(p.max_team_size, 4);
    EXPECT_GT(p.master_span, 0);
    EXPECT_GT(p.worker_span, 0);
    // Workers live inside the master's span (3 workers, each shorter).
    EXPECT_LT(p.worker_span, p.master_span * 3);
  }
  EXPECT_GT(executions, 0u);
  // The summary report picks the section up.
  const auto report = summary_report(*launch.trace(), asci::umt98().symbols.get());
  EXPECT_NE(report.find("OpenMP parallel regions"), std::string::npos);
}

}  // namespace
}  // namespace dyntrace::analysis
