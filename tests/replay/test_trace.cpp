// ReplayTrace parsing: the grammar, the unsupported-verb policy, and the
// parse-time well-formedness rules (docs/TRACE_REPLAY.md).
#include <gtest/gtest.h>

#include "replay/trace.hpp"
#include "support/common.hpp"

namespace dyntrace::replay {
namespace {

constexpr const char* kGood = R"(# minimal two-rank exchange
ranks 2
app demo
subset work

0 0ms call fn=work work=2ms count=3
0 6ms MPI_Send dst=1 tag=5 bytes=1024 dur=15us
0 6100us sync
0 6100us MPI_Allreduce bytes=8

1 0us call fn=work work=1ms
1 1ms MPI_Recv src=0 tag=5 dur=20us
1 2ms sync
1 2ms MPI_Allreduce bytes=8
)";

TEST(ReplayTraceParse, AcceptsTheDocumentedGrammar) {
  const ReplayTrace trace = ReplayTrace::parse(kGood);
  EXPECT_EQ(trace.app_name, "demo");
  EXPECT_EQ(trace.ranks, 2);
  EXPECT_EQ(trace.subset, std::vector<std::string>{"work"});
  EXPECT_EQ(trace.call_functions, std::vector<std::string>{"work"});
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].size(), 4u);
  EXPECT_EQ(trace.events[1].size(), 4u);
  EXPECT_EQ(trace.skipped_events, 0u);

  const ReplayEvent& call = trace.events[0][0];
  EXPECT_EQ(call.verb, Verb::kCall);
  EXPECT_EQ(call.fn, "work");
  EXPECT_EQ(call.work, sim::milliseconds(2));
  EXPECT_EQ(call.count, 3);

  const ReplayEvent& send = trace.events[0][1];
  EXPECT_EQ(send.verb, Verb::kSend);
  EXPECT_EQ(send.at, sim::milliseconds(6));
  EXPECT_EQ(send.peer, 1);
  EXPECT_EQ(send.tag, 5);
  EXPECT_EQ(send.bytes, 1024);
  EXPECT_EQ(send.dur, sim::microseconds(15));
}

TEST(ReplayTraceParse, VerbNames) {
  EXPECT_STREQ(to_string(Verb::kCall), "call");
  EXPECT_STREQ(to_string(static_cast<Verb>(99)), "?");
}

TEST(ReplayTraceParse, SubsetDefaultsToEveryCallFunction) {
  const ReplayTrace trace = ReplayTrace::parse(
      "ranks 1\n0 0ms call fn=a work=1ms\n0 1ms call fn=b work=1ms\n"
      "0 2ms call fn=a work=1ms\n");
  EXPECT_EQ(trace.subset, (std::vector<std::string>{"a", "b"}));
}

TEST(ReplayTraceParse, VocabularyVerbsSkipCountByDefault) {
  const ReplayTrace trace = ReplayTrace::parse(
      "ranks 1\n0 0us MPI_Comm_rank\n0 1us MPI_Type_commit\n"
      "0 2us MPI_Comm_rank\n0 3us call fn=f work=1ms\n");
  EXPECT_EQ(trace.skipped_events, 3u);
  EXPECT_EQ(trace.skipped_verbs,
            (std::vector<std::string>{"MPI_Comm_rank", "MPI_Type_commit"}));
  EXPECT_EQ(trace.events[0].size(), 1u);
}

TEST(ReplayTraceParse, StrictRejectsUnreplayedVocabularyVerbs) {
  ParseOptions strict;
  strict.strict = true;
  EXPECT_THROW(ReplayTrace::parse("ranks 1\n0 0us MPI_Comm_rank\n", "<t>", strict),
               Error);
  // An unknown token is an error in both modes.
  EXPECT_THROW(ReplayTrace::parse("ranks 1\n0 0us MPI_Frobnicate\n"), Error);
  EXPECT_THROW(ReplayTrace::parse("ranks 1\n0 0us MPI_Frobnicate\n", "<t>", strict),
               Error);
}

TEST(ReplayTraceParse, RejectsTruncatedEventLine) {
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n0 5ms\n"), Error);
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n0\n"), Error);
}

TEST(ReplayTraceParse, RejectsNonMonotonicTimestamps) {
  EXPECT_THROW(ReplayTrace::parse("ranks 1\n0 5ms call fn=f work=1ms\n"
                                  "0 4ms call fn=f work=1ms\n"),
               Error);
  // Other ranks' cursors are independent: interleaved order is fine.
  EXPECT_NO_THROW(ReplayTrace::parse("ranks 2\n0 5ms call fn=f work=1ms\n"
                                     "1 1ms call fn=f work=1ms\n"));
}

TEST(ReplayTraceParse, RejectsStructuralErrors) {
  // Missing or misplaced ranks directive.
  EXPECT_THROW(ReplayTrace::parse(""), Error);
  EXPECT_THROW(ReplayTrace::parse("0 0ms call fn=f work=1ms\nranks 1\n"), Error);
  // Rank and peer out of range.
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n2 0ms call fn=f work=1ms\n"), Error);
  EXPECT_THROW(
      ReplayTrace::parse("ranks 2\n0 0ms MPI_Send dst=2 bytes=1\n"
                         "1 0ms MPI_Recv src=0\n"),
      Error);
  // Unknown key and missing required key.
  EXPECT_THROW(ReplayTrace::parse("ranks 1\n0 0ms call fn=f work=1ms color=red\n"),
               Error);
  EXPECT_THROW(ReplayTrace::parse("ranks 1\n0 0ms call fn=f\n"), Error);
  // Subset function that never appears in a call event.
  EXPECT_THROW(ReplayTrace::parse("ranks 1\nsubset ghost\n0 0ms call fn=f work=1ms\n"),
               Error);
  // count x work past the simulated clock, on one line or summed over a rank.
  EXPECT_THROW(
      ReplayTrace::parse("ranks 1\n0 0ms call fn=x count=9223372036854775807 work=1s\n"),
      Error);
  EXPECT_THROW(ReplayTrace::parse("ranks 1\n0 0ms call fn=x count=5000000000 work=1s\n"
                                  "0 0ms call fn=x count=5000000000 work=1s\n"),
               Error);
}

TEST(ReplayTraceParse, RanksBeyondTheLimitFailAtParseTime) {
  // Past int: used to truncate (4294967297 became 1).
  EXPECT_THROW(ReplayTrace::parse("ranks 4294967297\n0 0ms call fn=f work=1ms\n"), Error);
  EXPECT_THROW(ReplayTrace::parse("ranks 99999999999999999999999\n"), Error);
  // Fits an int but is past kMaxRanks: used to size per-rank state first.
  EXPECT_THROW(ReplayTrace::parse("ranks 99999999\n"), Error);
  EXPECT_THROW(ReplayTrace::parse("ranks " + std::to_string(kMaxRanks + 1) + "\n"), Error);
  EXPECT_EQ(ReplayTrace::parse("ranks " + std::to_string(kMaxRanks) + "\n").ranks, kMaxRanks);
  // An event rank that would truncate into range.
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n4294967297 0ms call fn=f work=1ms\n"), Error);
  // A peer that would truncate into range.
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n0 0ms MPI_Send dst=4294967297 bytes=1\n"
                                  "1 0ms MPI_Recv src=0\n"),
               Error);
  for (const char* text : {"# header\nranks 99999999\n", "ranks 1\n4294967296 0ms sync\n"}) {
    try {
      ReplayTrace::parse(text, "big.trace");
      FAIL() << "expected a parse error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("big.trace:2"), std::string::npos) << e.what();
    }
  }
}

TEST(ReplayTraceParse, TimesFailClosed) {
  // Timestamps and work= values whose nanoseconds do not fit TimeNs used to
  // reach a float->int64 cast (undefined behaviour).
  for (const char* text : {"ranks 1\n0 1e30s call fn=f work=1ms\n",
                           "ranks 1\n0 0ms call fn=f work=1e30s\n",
                           "ranks 1\n0 0ms call fn=f work=9223372037s\n",
                           "ranks 1\n0 -1ms call fn=f work=1ms\n",
                           "ranks 1\n0 0ms call fn=f work=2.5.1ms\n"}) {
    try {
      ReplayTrace::parse(text, "times.trace");
      FAIL() << "expected a parse error for " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("times.trace:2"), std::string::npos) << e.what();
    }
  }
  EXPECT_NO_THROW(ReplayTrace::parse("ranks 1\n0 0ms call fn=f work=9223372036s\n"));
}

TEST(ReplayTraceParse, IntegersFailClosed) {
  // Key values once went through bare std::stoll, which ignored trailing
  // junk: count=4x replayed as count=4.
  for (const char* text : {"ranks 1\n0 0ms call fn=f work=500us count=4x\n",
                           "ranks 1\n0 0ms call fn=f work=500us count=99999999999999999999\n",
                           "ranks 2\n0 0ms MPI_Send dst=1x bytes=1\n1 0ms MPI_Recv src=0\n",
                           "ranks 2\n0 0ms MPI_Send dst=1 bytes=8kb\n1 0ms MPI_Recv src=0\n"}) {
    try {
      ReplayTrace::parse(text, "ints.trace");
      FAIL() << "expected a parse error for " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("ints.trace:2"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(ReplayTrace::parse("ranks 1\n0 0ms call fn=f work=500us count=4\n")
                .events[0][0]
                .count,
            4);
}

TEST(ReplayTraceParse, RejectsUnpairedPointToPoint) {
  // Send with no receive.
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n0 0ms MPI_Send dst=1 tag=3 bytes=8\n"),
               Error);
  // Tag mismatch is an unpaired pair, not a match.
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n0 0ms MPI_Send dst=1 tag=3 bytes=8\n"
                                  "1 0ms MPI_Recv src=0 tag=4\n"),
               Error);
  // Sendrecv contributes to both sides of the ledger.
  EXPECT_NO_THROW(
      ReplayTrace::parse("ranks 2\n0 0ms MPI_Sendrecv dst=1 src=1 tag=9 bytes=64\n"
                         "1 0ms MPI_Sendrecv dst=0 src=0 tag=9 bytes=64\n"));
}

TEST(ReplayTraceParse, EnforcesRequestDiscipline) {
  // A request opened but never waited.
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n0 0ms MPI_Isend dst=1 bytes=8 req=a\n"
                                  "1 0ms MPI_Recv src=0\n"),
               Error);
  // A wait on a request that was never opened.
  EXPECT_THROW(ReplayTrace::parse("ranks 1\n0 0ms MPI_Wait req=a\n"), Error);
  // Reusing a live request id.
  EXPECT_THROW(ReplayTrace::parse("ranks 3\n"
                                  "0 0ms MPI_Isend dst=1 bytes=8 req=a\n"
                                  "0 0ms MPI_Isend dst=2 bytes=8 req=a\n"
                                  "0 1ms MPI_Wait req=a\n0 1ms MPI_Wait req=a\n"
                                  "1 0ms MPI_Recv src=0\n2 0ms MPI_Recv src=0\n"),
               Error);
  // The happy path: isend/irecv closed by waitall.
  EXPECT_NO_THROW(ReplayTrace::parse("ranks 2\n"
                                     "0 0ms MPI_Irecv src=1 req=rx\n"
                                     "0 0ms MPI_Isend dst=1 bytes=8 req=tx\n"
                                     "0 1ms MPI_Waitall req=rx,tx\n"
                                     "1 0ms MPI_Irecv src=0 req=rx\n"
                                     "1 0ms MPI_Isend dst=0 bytes=8 req=tx\n"
                                     "1 1ms MPI_Waitall req=rx,tx\n"));
}

TEST(ReplayTraceParse, RejectsMismatchedCollectiveSequences) {
  // Rank 1 misses the barrier.
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n0 0ms MPI_Barrier\n"), Error);
  // Different collective at the same position.
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n0 0ms MPI_Barrier\n"
                                  "1 0ms MPI_Allreduce bytes=8\n"),
               Error);
  // Same collective, different root.
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n0 0ms MPI_Bcast root=0 bytes=8\n"
                                  "1 0ms MPI_Bcast root=1 bytes=8\n"),
               Error);
  // sync participates in the sequence (confsync must fire on every rank).
  EXPECT_THROW(ReplayTrace::parse("ranks 2\n0 0ms sync\n0 1ms MPI_Barrier\n"
                                  "1 0ms MPI_Barrier\n"),
               Error);
}

TEST(ReplayTraceVocabulary, KnowsTheDumpiNames) {
  EXPECT_TRUE(in_dumpi_vocabulary("MPI_Send"));
  EXPECT_TRUE(in_dumpi_vocabulary("MPI_Ssend"));
  EXPECT_TRUE(in_dumpi_vocabulary("MPI_Group_range_excl"));
  EXPECT_TRUE(in_dumpi_vocabulary("MPI_Pcontrol"));
  EXPECT_FALSE(in_dumpi_vocabulary("MPI_Frobnicate"));
  EXPECT_FALSE(in_dumpi_vocabulary("call"));  // local verb, not an MPI name
}

TEST(ReplayTraceParse, ErrorsNameTheOriginAndLine) {
  for (const char* text : {"ranks 1\n0 0ms call fn=f\n",
                           "ranks 1\n0 0ms call fn=x count=9223372036854775807 work=1s\n"}) {
    try {
      ReplayTrace::parse(text, "ring.trace");
      FAIL() << "expected a parse error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("ring.trace:2"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dyntrace::replay
