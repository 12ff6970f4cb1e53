#include "vt/trace_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "support/common.hpp"

namespace dyntrace::vt {
namespace {

Event make_event(sim::TimeNs time, std::int32_t pid, EventKind kind, std::int32_t code = 0,
                 std::int64_t aux = 0) {
  Event e;
  e.time = time;
  e.pid = pid;
  e.tid = 0;
  e.kind = kind;
  e.code = code;
  e.aux = aux;
  return e;
}

TEST(TraceStore, MergedSortsByTimeThenPid) {
  TraceStore store;
  store.append(make_event(20, 1, EventKind::kEnter, 5));
  store.append(make_event(10, 2, EventKind::kEnter, 6));
  store.append(make_event(10, 0, EventKind::kEnter, 7));
  const auto merged = store.merged();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].code, 7);
  EXPECT_EQ(merged[1].code, 6);
  EXPECT_EQ(merged[2].code, 5);
}

TEST(TraceStore, EventKindNames) {
  EXPECT_EQ(to_string(EventKind::kEnter), "enter");
  EXPECT_EQ(to_string(EventKind::kMarker), "marker");
  EXPECT_EQ(to_string(static_cast<EventKind>(99)), "?");
}

TEST(TraceStore, ForProcessFilters) {
  TraceStore store;
  store.append(make_event(1, 0, EventKind::kEnter));
  store.append(make_event(2, 1, EventKind::kEnter));
  store.append(make_event(3, 0, EventKind::kLeave));
  EXPECT_EQ(store.for_process(0).size(), 2u);
  EXPECT_EQ(store.for_process(1).size(), 1u);
  EXPECT_TRUE(store.for_process(9).empty());
}

TEST(TraceStore, WriteReadRoundTrip) {
  TraceStore store;
  store.append(make_event(123456789, 3, EventKind::kMsgSend, 7, 65536));
  store.append(make_event(5, 0, EventKind::kEnter, 42));
  store.append(make_event(999, 1, EventKind::kParallelBegin, 2, 4));

  const std::string path = ::testing::TempDir() + "/trace_roundtrip.txt";
  store.write(path);
  const TraceStore loaded = TraceStore::read(path);
  ASSERT_EQ(loaded.size(), 3u);
  const auto merged = loaded.merged();
  EXPECT_EQ(merged[0].code, 42);
  EXPECT_EQ(merged[1].kind, EventKind::kParallelBegin);
  EXPECT_EQ(merged[2].kind, EventKind::kMsgSend);
  EXPECT_EQ(merged[2].aux, 65536);
  EXPECT_EQ(merged[2].pid, 3);
  std::remove(path.c_str());
}

TEST(TraceStore, ReadRejectsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/trace_bad.txt";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1\t2\t3\n", f);  // too few fields
    std::fclose(f);
  }
  EXPECT_THROW(TraceStore::read(path), Error);
  std::remove(path.c_str());
}

TEST(TraceStore, ReadMissingFileThrows) {
  EXPECT_THROW(TraceStore::read("/nonexistent/trace.txt"), Error);
}

TEST(TraceStore, EventKindNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(EventKind::kMarker); ++k) {
    EXPECT_NE(to_string(static_cast<EventKind>(k)), "?");
  }
}

}  // namespace
}  // namespace dyntrace::vt
