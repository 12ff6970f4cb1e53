// Sharded store, spill-to-disk, binary format, and k-way merge: round-trip
// and adversarial-input coverage for the trace subsystem.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "support/common.hpp"
#include "vt/trace_codec_v2.hpp"
#include "vt/trace_reader.hpp"
#include "vt/trace_store.hpp"

namespace dyntrace::vt {
namespace {

Event make_event(sim::TimeNs time, std::int32_t pid, EventKind kind = EventKind::kEnter,
                 std::int32_t code = 0, std::int64_t aux = 0) {
  Event e;
  e.time = time;
  e.pid = pid;
  e.tid = 0;
  e.kind = kind;
  e.code = code;
  e.aux = aux;
  return e;
}

bool same_event(const Event& a, const Event& b) {
  return a.time == b.time && a.pid == b.pid && a.tid == b.tid && a.kind == b.kind &&
         a.code == b.code && a.aux == b.aux;
}

TraceStore::Options spill_options(std::size_t budget_bytes) {
  TraceStore::Options options;
  options.spill_budget_bytes = budget_bytes;
  options.spill_dir = ::testing::TempDir();
  return options;
}

TEST(TraceShard, SpillsSortedRunsPastBudget) {
  // Budget of 4 events: 10 appends -> at least two disk runs.
  TraceStore store(spill_options(4 * sizeof(Event)));
  for (int i = 0; i < 10; ++i) {
    store.append(make_event(100 - i, 0, EventKind::kEnter, i));
  }
  TraceShard& shard = store.shard(0);
  EXPECT_GE(shard.spill_runs(), 2u);
  EXPECT_GT(shard.spilled_bytes(), 0u);
  EXPECT_EQ(shard.size(), 10u);

  // The merged view is globally sorted even though appends were reversed.
  const auto merged = store.merged();
  ASSERT_EQ(merged.size(), 10u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].time, merged[i].time);
  }
}

TEST(TraceMerge, InterleavesOutOfOrderPerRankTimestamps) {
  // Three ranks whose local streams are *not* time-sorted (clock
  // adjustment mid-run), small budget so every rank spans several runs.
  TraceStore store(spill_options(3 * sizeof(Event)));
  std::vector<Event> reference;
  const sim::TimeNs times[] = {50, 10, 40, 20, 60, 30, 25, 55, 15, 45};
  for (std::int32_t pid = 0; pid < 3; ++pid) {
    for (int i = 0; i < 10; ++i) {
      const Event e = make_event(times[i] + pid, pid, EventKind::kEnter, pid * 100 + i);
      store.append(e);
      reference.push_back(e);
    }
  }
  std::stable_sort(reference.begin(), reference.end(), EventOrder{});

  const auto merged = store.merged();
  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    // Unique (time, pid) keys in this input, so the merged sequence must
    // match the reference sort exactly, payloads included.
    EXPECT_TRUE(same_event(merged[i], reference[i])) << "at " << i;
  }

  // Per-process cursors see only their rank, in time order.
  std::vector<Event> p1;
  auto cursor = store.process_cursor(1);
  for (Event e; cursor->next(e);) p1.push_back(e);
  ASSERT_EQ(p1.size(), 10u);
  for (const auto& e : p1) EXPECT_EQ(e.pid, 1);
  for (std::size_t i = 1; i < p1.size(); ++i) EXPECT_LE(p1[i - 1].time, p1[i].time);
}

TEST(TraceMerge, EqualKeysResolveToAppendOrder) {
  // Events with identical (time, pid, tid) must come out in append order
  // even when a spill splits them across runs (determinism contract).
  TraceStore store(spill_options(2 * sizeof(Event)));
  for (int i = 0; i < 6; ++i) store.append(make_event(7, 0, EventKind::kMarker, i));
  const auto merged = store.merged();
  ASSERT_EQ(merged.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(merged[static_cast<std::size_t>(i)].code, i);
}

TEST(TraceMerge, MergeCursorStreamsWithoutMaterializing) {
  TraceStore store(spill_options(8 * sizeof(Event)));
  for (int i = 0; i < 1000; ++i) {
    store.append(make_event(i, i % 4, EventKind::kEnter, i));
  }
  auto cursor = store.merge_cursor();
  Event e;
  std::size_t count = 0;
  sim::TimeNs last = -1;
  while (cursor->next(e)) {
    EXPECT_GE(e.time, last);
    last = e.time;
    ++count;
  }
  EXPECT_EQ(count, 1000u);
}

TEST(TraceMerge, TimeBoundsTrackShardExtremes) {
  TraceStore store;
  sim::TimeNs lo = 0, hi = 0;
  EXPECT_FALSE(store.time_bounds(&lo, &hi));
  store.append(make_event(500, 0));
  store.append(make_event(100, 1));
  store.append(make_event(900, 1));
  ASSERT_TRUE(store.time_bounds(&lo, &hi));
  EXPECT_EQ(lo, 100);
  EXPECT_EQ(hi, 900);
}

TEST(TraceBinary, WriteReadRoundTrip) {
  TraceStore store(spill_options(2 * sizeof(Event)));
  store.append(make_event(123456789, 3, EventKind::kMsgSend, 7, 65536));
  store.append(make_event(5, 0, EventKind::kEnter, 42));
  store.append(make_event(999, 1, EventKind::kParallelBegin, 2, 4));
  store.append(make_event(-17, 2, EventKind::kMarker, -9, -1));  // negative fields survive

  const std::string path = ::testing::TempDir() + "/trace_roundtrip.bin";
  store.write_binary(path);
  std::vector<Event> merged;
  auto cursor = TraceStore::open_binary(path);
  for (Event e; cursor->next(e);) merged.push_back(e);
  ASSERT_EQ(merged.size(), 4u);
  const auto original = store.merged();
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_TRUE(same_event(merged[i], original[i])) << "at " << i;
  }
  std::remove(path.c_str());
}

TEST(TraceBinary, TextAndBinaryFormatsAreEquivalent) {
  TraceStore store;
  for (int i = 0; i < 32; ++i) {
    store.append(make_event(1000 - 7 * i, i % 3,
                            static_cast<EventKind>(i % (static_cast<int>(EventKind::kMarker) + 1)),
                            i, i * 11));
  }
  const std::string text_path = ::testing::TempDir() + "/trace_eq.txt";
  const std::string bin_path = ::testing::TempDir() + "/trace_eq.bin";
  store.write(text_path);
  store.write_binary(bin_path);
  // The text file holds, after its comment line, the binary file's records
  // in the same order, one tab-separated line each.
  std::ifstream text(text_path);
  std::string line;
  ASSERT_TRUE(std::getline(text, line));
  EXPECT_EQ(line.front(), '#');
  auto cursor = TraceStore::open_binary(bin_path);
  std::size_t records = 0;
  for (Event e; cursor->next(e); ++records) {
    ASSERT_TRUE(std::getline(text, line)) << "at " << records;
    EXPECT_EQ(line, std::to_string(e.time) + "\t" + std::to_string(e.pid) + "\t" +
                        std::to_string(e.tid) + "\t" + std::string(to_string(e.kind)) + "\t" +
                        std::to_string(e.code) + "\t" + std::to_string(e.aux))
        << "at " << records;
  }
  EXPECT_EQ(records, store.size());
  EXPECT_FALSE(std::getline(text, line));
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(TraceBinary, OpenBinaryStreamsInMergedOrder) {
  TraceStore store;
  for (int i = 0; i < 10; ++i) store.append(make_event(100 - i, 0, EventKind::kEnter, i));
  const std::string path = ::testing::TempDir() + "/trace_stream.bin";
  store.write_binary(path);
  auto cursor = TraceStore::open_binary(path);
  Event e;
  sim::TimeNs last = -1;
  std::size_t count = 0;
  while (cursor->next(e)) {
    EXPECT_GT(e.time, last);
    last = e.time;
    ++count;
  }
  EXPECT_EQ(count, 10u);
  std::remove(path.c_str());
}

TEST(TraceBinary, TruncatedHeaderThrows) {
  const std::string path = ::testing::TempDir() + "/trace_short_header.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("DTRC\x01", 5);  // magic + half a version field
  }
  EXPECT_THROW(TraceStore::open_binary(path), Error);
  std::remove(path.c_str());
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes,
                 std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(size));
}

/// Drain a binary trace file; returns the record count read.
std::size_t drain_binary(const std::string& path) {
  auto cursor = TraceStore::open_binary(path);
  std::size_t n = 0;
  Event e;
  while (cursor->next(e)) ++n;
  return n;
}

TEST(TraceBinary, TruncatedPayloadThrows) {
  TraceStore store;
  store.append(make_event(1, 0));
  store.append(make_event(2, 0));
  const std::string path = ::testing::TempDir() + "/trace_truncated.bin";
  store.write_binary(path);
  // Chop the block's last payload byte.
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  write_bytes(path, bytes, bytes.size() - 1);
  EXPECT_THROW(drain_binary(path), Error);
  std::remove(path.c_str());
}

TEST(TraceBinary, UnknownKindByteThrows) {
  TraceStore store;
  store.append(make_event(1, 0));
  const std::string path = ::testing::TempDir() + "/trace_badkind.bin";
  store.write_binary(path);
  std::vector<std::uint8_t> bytes = read_bytes(path);
  // The record's kind tag follows the three one-value dictionaries (two
  // bytes each).  Re-seal the block's CRC so the decoder, not the checksum,
  // has to catch it.
  std::uint8_t* block = bytes.data() + kTraceHeaderBytes;
  block[kBlockHeaderBytes + 6] = 0x7f;
  put_u32_le(block + 4, crc32(block + 8, 8 + get_u32_le(block + 8)));
  write_bytes(path, bytes, bytes.size());
  EXPECT_THROW(drain_binary(path), Error);
  std::remove(path.c_str());
}

TEST(TraceBinary, UnsupportedVersionThrows) {
  TraceStore store;
  store.append(make_event(1, 0));
  const std::string path = ::testing::TempDir() + "/trace_badversion.bin";
  store.write_binary(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);  // version field
    const char v3[2] = {3, 0};
    f.write(v3, 2);
  }
  // The reader must reject the file loudly, naming both the file's version
  // and its own.
  try {
    drain_binary(path);
    FAIL() << "version 3 was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 3"), std::string::npos) << what;
    EXPECT_NE(what.find("speaks version 2"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TraceBinary, VersionOneFileIsRejectedByName) {
  // A file of the retired version 1: fixed 32-byte records, the record
  // size in the header.
  std::vector<std::uint8_t> bytes = {'D', 'T', 'R', 'C', 1, 0, 32, 0, 1, 0, 0, 0, 0, 0, 0, 0};
  bytes.resize(kTraceHeaderBytes + 32, 0);
  const std::string path = ::testing::TempDir() + "/trace_v1.bin";
  write_bytes(path, bytes, bytes.size());
  try {
    drain_binary(path);
    FAIL() << "a version 1 file was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TraceBinary, PayloadBeyondDeclaredCountThrows) {
  TraceStore store;
  for (int i = 0; i < 100; ++i) store.append(make_event(i, 0, EventKind::kEnter, i % 9));
  const std::string path = ::testing::TempDir() + "/trace_overfull.bin";
  store.write_binary(path);
  const std::vector<std::uint8_t> good = read_bytes(path);
  ASSERT_EQ(drain_binary(path), 100u);

  const auto with_count = [&](std::uint64_t count) {
    std::vector<std::uint8_t> bytes = good;
    for (int i = 0; i < 8; ++i) bytes[8 + i] = static_cast<std::uint8_t>(count >> (8 * i));
    return bytes;
  };
  // A header that under-declares the block, with or without trailing
  // garbage, and trailing garbage after an honest header: each must fail
  // closed rather than read back a prefix.
  std::vector<std::uint8_t> short_count_and_tail = with_count(60);
  short_count_and_tail.insert(short_count_and_tail.end(), 16, 0xa5);
  std::vector<std::uint8_t> tail_only = good;
  tail_only.insert(tail_only.end(), 16, 0xa5);
  for (const auto& bytes : {with_count(60), short_count_and_tail, tail_only}) {
    write_bytes(path, bytes, bytes.size());
    try {
      drain_binary(path);
      FAIL() << "a payload that does not match its header was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(TraceBinary, EveryTruncationAndByteFlipThrows) {
  // A small three-block file: repeated bursts keep the blocks short, and a
  // code change every 700 records plus a unique aux every 1000 mix plain
  // records with super-records.
  TraceStore store;
  for (int i = 0; i < 2 * static_cast<int>(kBlockRecords) + 300; ++i) {
    const auto kind = i % 2 == 0 ? EventKind::kEnter : EventKind::kLeave;
    store.append(make_event(10 * i, 0, kind, (i / 700) % 3, i % 1000 == 0 ? i : 0));
  }
  const std::string path = ::testing::TempDir() + "/trace_mutated.bin";
  store.write_binary(path);
  const std::vector<std::uint8_t> good = read_bytes(path);
  ASSERT_EQ(drain_binary(path), store.size());
  ASSERT_GT(good.size(), kTraceHeaderBytes + 3 * kBlockHeaderBytes);

  for (std::size_t size = 0; size < good.size(); ++size) {
    write_bytes(path, good, size);
    EXPECT_THROW(drain_binary(path), Error) << "truncated to " << size << " bytes";
  }
  for (std::size_t at = 0; at < good.size(); ++at) {
    for (const std::uint8_t mask : {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff}) {
      std::vector<std::uint8_t> bytes = good;
      bytes[at] ^= mask;
      write_bytes(path, bytes, bytes.size());
      EXPECT_THROW(drain_binary(path), Error)
          << "byte " << at << " flipped by 0x" << std::hex << static_cast<int>(mask);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceHeader, RejectsBadMagicVersionAndRecordSize) {
  std::uint8_t header[kTraceHeaderBytes];
  encode_trace_header(9, header);
  EXPECT_EQ(header[4], kTraceVersion);
  EXPECT_EQ(decode_trace_header(header, sizeof(header), "t"), 9u);

  std::uint8_t bad_magic[kTraceHeaderBytes];
  encode_trace_header(3, bad_magic);
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_trace_header(bad_magic, sizeof(bad_magic), "t"), Error);

  std::uint8_t bad_version[kTraceHeaderBytes];
  encode_trace_header(3, bad_version);
  bad_version[4] = 1;
  EXPECT_THROW(decode_trace_header(bad_version, sizeof(bad_version), "t"), Error);

  std::uint8_t bad_size[kTraceHeaderBytes];
  encode_trace_header(3, bad_size);
  bad_size[6] = 32;  // records are variable-length (0)
  EXPECT_THROW(decode_trace_header(bad_size, sizeof(bad_size), "t"), Error);

  EXPECT_THROW(decode_trace_header(header, kTraceHeaderBytes - 1, "t"), Error);
}

TEST(TraceStoreSharded, EventsGroupsByProcess) {
  TraceStore store;
  store.append(make_event(3, 1, EventKind::kEnter, 30));
  store.append(make_event(1, 0, EventKind::kEnter, 10));
  store.append(make_event(2, 1, EventKind::kEnter, 20));
  EXPECT_EQ(store.pids(), (std::vector<std::int32_t>{0, 1}));
  // Each shard streams its own process, time-ordered.
  std::vector<std::int32_t> codes;
  for (const std::int32_t pid : store.pids()) {
    auto cursor = store.process_cursor(pid);
    for (Event e; cursor->next(e);) codes.push_back(e.code);
  }
  EXPECT_EQ(codes, (std::vector<std::int32_t>{10, 20, 30}));
}

}  // namespace
}  // namespace dyntrace::vt
