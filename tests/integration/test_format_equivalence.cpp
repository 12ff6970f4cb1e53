// Trace format v2 equivalence (ISSUE 8): the spill encoding changes bytes
// on disk only.  For the same run configuration, v1 and v2 must produce
// bit-identical merged traces, statistics, and adaptive decision logs --
// with the spill budget low enough that the merge actually reads encoded
// runs back, not just memory.
#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "dynprof/policy.hpp"

namespace dyntrace::dynprof {
namespace {

PolicyResult run_cell(Policy policy, vt::TraceFormat format) {
  RunConfig config;
  config.app = &asci::smg98();
  config.policy = policy;
  config.nprocs = 8;
  config.problem_scale = 0.15;
  config.seed = 42;
  config.trace_spill_bytes = std::size_t{1} << 12;  // 128-event runs: many spills
  config.trace_format = format;
  return run_policy(config);
}

TEST(FormatEquivalence, FullRunDigestsMatchAcrossFormatsAndThreads) {
  const PolicyResult base = run_cell(Policy::kFull, vt::TraceFormat::kV1);
  ASSERT_GT(base.trace_events, 0u);
  ASSERT_GT(base.trace_digest, 0u);
  // v1 again (run-to-run identity), then v2.
  for (const vt::TraceFormat format : {vt::TraceFormat::kV1, vt::TraceFormat::kV2}) {
    const PolicyResult r = run_cell(Policy::kFull, format);
    EXPECT_EQ(r.trace_digest, base.trace_digest) << vt::to_string(format);
    EXPECT_EQ(r.stats_digest, base.stats_digest) << vt::to_string(format);
    EXPECT_EQ(r.trace_events, base.trace_events) << vt::to_string(format);
    EXPECT_EQ(r.app_seconds, base.app_seconds) << vt::to_string(format);
  }
}

TEST(FormatEquivalence, AdaptiveDecisionLogIdenticalAcrossFormats) {
  // The controller's decision trail is driven by measured overhead, which
  // must not see the encoding at all.
  const PolicyResult v1 = run_cell(Policy::kAdaptive, vt::TraceFormat::kV1);
  const PolicyResult v2 = run_cell(Policy::kAdaptive, vt::TraceFormat::kV2);
  EXPECT_EQ(v1.trace_digest, v2.trace_digest);
  EXPECT_EQ(v1.stats_digest, v2.stats_digest);
  EXPECT_EQ(v1.confsyncs, v2.confsyncs);
  ASSERT_FALSE(v1.decisions.decisions.empty());
  EXPECT_EQ(analysis::render_decision_log(v1.decisions),
            analysis::render_decision_log(v2.decisions));
}

}  // namespace
}  // namespace dyntrace::dynprof
