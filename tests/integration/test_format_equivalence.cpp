// A trace lives in one of two formats: in-memory event vectors, or encoded
// blocks spilled to disk.  The format changes where records live, not what
// they say: for the same run configuration, a run whose shards spill (4 KiB
// budget: 128-event runs, so the merge really reads encoded runs back) and
// the same cell held in memory produce bit-identical merged traces,
// statistics, and adaptive decision logs.  The digests are pinned to the
// values the retired fixed-record encoding produced.
#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "dynprof/policy.hpp"

namespace dyntrace::dynprof {
namespace {

PolicyResult run_cell(Policy policy, std::size_t spill_bytes) {
  Launch::Options config;
  config.app = &asci::smg98();
  config.policy = policy;
  config.params.nprocs = 8;
  config.params.problem_scale = 0.15;
  config.params.seed = 42;
  config.trace_spill_bytes = spill_bytes;
  return run_policy(config);
}

constexpr std::size_t kSpillBytes = std::size_t{1} << 12;

TEST(FormatEquivalence, FullRunDigestsMatchAcrossFormats) {
  const PolicyResult in_memory = run_cell(Policy::kFull, 0);
  const PolicyResult spilled = run_cell(Policy::kFull, kSpillBytes);
  EXPECT_EQ(spilled.trace_digest, 0x6a7069d5260b2e12ull);
  EXPECT_EQ(spilled.stats_digest, 0xee78972134a97a59ull);
  EXPECT_EQ(in_memory.trace_digest, spilled.trace_digest);
  EXPECT_EQ(in_memory.stats_digest, spilled.stats_digest);
  EXPECT_EQ(in_memory.trace_events, spilled.trace_events);
  EXPECT_EQ(in_memory.app_seconds, spilled.app_seconds);
}

TEST(FormatEquivalence, AdaptiveDecisionLogIdenticalAcrossFormats) {
  // The controller's decision trail is driven by measured overhead, which
  // must not see where the trace lives at all.
  const PolicyResult in_memory = run_cell(Policy::kAdaptive, 0);
  const PolicyResult spilled = run_cell(Policy::kAdaptive, kSpillBytes);
  EXPECT_EQ(spilled.trace_digest, 0xddb563af9a9622b1ull);
  EXPECT_EQ(spilled.stats_digest, 0xa242437ca5a9a3d2ull);
  EXPECT_EQ(in_memory.trace_digest, spilled.trace_digest);
  EXPECT_EQ(in_memory.stats_digest, spilled.stats_digest);
  EXPECT_EQ(in_memory.confsyncs, spilled.confsyncs);
  ASSERT_FALSE(spilled.decisions.decisions.empty());
  EXPECT_EQ(analysis::render_decision_log(in_memory.decisions),
            analysis::render_decision_log(spilled.decisions));
}

}  // namespace
}  // namespace dyntrace::dynprof
