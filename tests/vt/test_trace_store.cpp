#include "vt/trace_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

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
  const auto count = [&store](std::int32_t pid) {
    auto cursor = store.process_cursor(pid);
    std::size_t n = 0;
    for (Event e; cursor->next(e); ++n) EXPECT_EQ(e.pid, pid);
    return n;
  };
  EXPECT_EQ(count(0), 2u);
  EXPECT_EQ(count(1), 1u);
  EXPECT_EQ(count(9), 0u);
}

TEST(TraceStore, WriteReadRoundTrip) {
  TraceStore store;
  store.append(make_event(123456789, 3, EventKind::kMsgSend, 7, 65536));
  store.append(make_event(5, 0, EventKind::kEnter, 42));
  store.append(make_event(999, 1, EventKind::kParallelBegin, 2, 4));

  // The text file reads back as a comment line, then one tab-separated
  // line per event in merged order.
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.txt";
  store.write(path);
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{
                       "# dyntrace trace v1: time_ns pid tid kind code aux",
                       "5\t0\t0\tenter\t42\t0",
                       "999\t1\t0\tpar_begin\t2\t4",
                       "123456789\t3\t0\tmsg_send\t7\t65536",
                   }));
  std::remove(path.c_str());
}

TEST(TraceStore, ReadMissingFileThrows) {
  EXPECT_THROW(TraceStore::open_binary("/nonexistent/trace.dtrc"), Error);
}

TEST(TraceStore, EventKindNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(EventKind::kMarker); ++k) {
    EXPECT_NE(to_string(static_cast<EventKind>(k)), "?");
  }
}

}  // namespace
}  // namespace dyntrace::vt
