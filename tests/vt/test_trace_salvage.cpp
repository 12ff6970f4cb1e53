// Crash-safe spill runs: atomic tmp+fsync+rename publication and the
// torn-run salvage path across shards (every complete, CRC-valid block
// before the tear is recovered; the corrupt tail is skipped and counted).
// Block-level tear and corruption cases live in test_trace_codec_v2.cpp.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "vt/trace_codec_v2.hpp"
#include "vt/trace_shard.hpp"
#include "vt/trace_store.hpp"

namespace dyntrace::vt {
namespace {

Event make_event(sim::TimeNs time, std::int32_t pid, std::int32_t code) {
  Event e;
  e.time = time;
  e.pid = pid;
  e.kind = EventKind::kEnter;
  e.code = code;
  return e;
}

TEST(TraceShard, CleanSpillPublishesAtomically) {
  ShardOptions options;
  options.spill_budget_bytes = 4 * sizeof(Event);
  options.spill_dir = ::testing::TempDir();
  TraceShard shard(7, options);
  for (int i = 0; i < 9; ++i) shard.append(make_event(i, 7, i));

  EXPECT_EQ(shard.spill_runs(), 2u);
  EXPECT_FALSE(shard.torn());
  EXPECT_EQ(shard.lost_records(), 0u);
  EXPECT_EQ(shard.size(), 9u);

  // No .tmp file may survive a clean spill (satellite 2: the run is fully
  // written, fsynced and renamed into place).
  std::size_t tmp_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(options.spill_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find("shard7") != std::string::npos &&
        name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      ++tmp_files;
    }
  }
  EXPECT_EQ(tmp_files, 0u);

  // The merged view sees every record in order.
  auto cursor = shard.cursor();
  Event event;
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(cursor->next(event)) << i;
    EXPECT_EQ(event.code, i);
  }
  EXPECT_FALSE(cursor->next(event));
}

TEST(TraceShard, BatchesAppendedAfterATearAreDroppedAndCounted) {
  ShardOptions options;
  options.spill_budget_bytes = 4 * sizeof(Event);
  options.spill_dir = ::testing::TempDir();
  options.spill_fault = [](std::int32_t, std::uint64_t, std::size_t bytes) { return bytes / 2; };
  TraceShard shard(8, options);
  std::vector<Event> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(make_event(i, 8, i));
  shard.append_batch(batch.data(), batch.size());  // spills, and the run tears
  ASSERT_TRUE(shard.torn());
  const std::uint64_t lost = shard.lost_records();
  shard.append_batch(batch.data(), 3);
  EXPECT_EQ(shard.lost_records(), lost + 3);
}

TEST(TraceStore, SalvageStatsAggregateAcrossShards) {
  // Two-block runs; pid 1's first run loses its last byte, which tears its
  // second block and leaves the first one salvageable.
  const std::size_t per_run = 2 * kBlockRecords;
  TraceStore::Options options;
  options.spill_budget_bytes = per_run * sizeof(Event);
  options.spill_dir = ::testing::TempDir();
  options.spill_fault = [](std::int32_t pid, std::uint64_t run, std::size_t bytes) {
    return pid == 1 && run == 0 ? bytes - 1 : bytes;
  };
  TraceStore store(options);
  const std::size_t per_pid = per_run + 2;
  for (std::size_t i = 0; i < per_pid; ++i) {
    const auto t = static_cast<sim::TimeNs>(i);
    store.append(make_event(t, 0, static_cast<std::int32_t>(i % 7)));
    store.append(make_event(t, 1, static_cast<std::int32_t>(i % 7)));
  }
  const auto stats = store.salvage_stats();
  EXPECT_EQ(stats.torn_shards, 1u);
  EXPECT_EQ(stats.salvaged_records, kBlockRecords);
  // The torn block, plus the 2 records dropped after the tear.
  EXPECT_EQ(stats.lost_records, kBlockRecords + 2u);

  // The k-way merge still serves everything pid 0 wrote plus the salvaged
  // block -- corrupt tails are skipped, not fatal.
  std::size_t merged = 0;
  Event event;
  auto cursor = store.merge_cursor();
  while (cursor->next(event)) ++merged;
  EXPECT_EQ(merged, per_pid + kBlockRecords);
}

}  // namespace
}  // namespace dyntrace::vt
