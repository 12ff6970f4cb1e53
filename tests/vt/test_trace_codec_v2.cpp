// The block trace encoding: varint/zig-zag property tests, block
// round-trips, redundancy suppression (counted super-records, bounded
// pattern table), block-granular torn-tail salvage, and store-level
// spilled-vs-in-memory identity against pinned digests.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "vt/trace_codec_v2.hpp"
#include "vt/trace_reader.hpp"
#include "vt/trace_shard.hpp"
#include "vt/trace_store.hpp"

namespace dyntrace::vt {
namespace {

Event make_event(sim::TimeNs time, std::int32_t pid, std::int32_t tid, EventKind kind,
                 std::int32_t code, std::int64_t aux = 0) {
  Event e;
  e.time = time;
  e.pid = pid;
  e.tid = tid;
  e.kind = kind;
  e.code = code;
  e.aux = aux;
  return e;
}

/// Deterministic xorshift so "random" inputs replay bit-identically.
struct Rng {
  std::uint64_t state = 0x243f6a8885a308d3ull;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

std::vector<Event> decode_all(const std::vector<std::uint8_t>& bytes) {
  std::vector<Event> out;
  BlockDecoder decoder;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::size_t block_bytes = 0;
    std::uint32_t count = 0;
    EXPECT_TRUE(decoder.reset(bytes.data() + offset, bytes.size() - offset, &block_bytes,
                              &count))
        << "at offset " << offset;
    Event e;
    while (decoder.next(e)) out.push_back(e);
    EXPECT_FALSE(decoder.failed());
    offset += block_bytes;
  }
  return out;
}

bool same_event(const Event& a, const Event& b) {
  return a.time == b.time && a.pid == b.pid && a.tid == b.tid && a.kind == b.kind &&
         a.code == b.code && a.aux == b.aux;
}

void expect_roundtrip(const std::vector<Event>& events, bool suppress) {
  SuppressionTable table(256);
  std::vector<std::uint8_t> bytes;
  const V2EncodeStats stats =
      encode_v2_blocks(events.data(), events.size(), suppress ? &table : nullptr, bytes);
  EXPECT_EQ(stats.records, events.size());
  EXPECT_EQ(stats.bytes, bytes.size());
  const std::vector<Event> decoded = decode_all(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(same_event(decoded[i], events[i])) << "at " << i;
  }
}

// --- varint / zig-zag properties -------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  0x7f,
                                  0x80,
                                  0x3fff,
                                  0x4000,
                                  0x1fffff,
                                  0x200000,
                                  0xffffffffull,
                                  0x100000000ull,
                                  (std::uint64_t{1} << 63) - 1,
                                  std::uint64_t{1} << 63,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::uint8_t buf[kMaxVarintBytes];
    const std::size_t n = put_varint(buf, v);
    ASSERT_LE(n, kMaxVarintBytes);
    const std::uint8_t* p = buf;
    std::uint64_t out = 0;
    ASSERT_TRUE(get_varint(&p, buf + n, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(p, buf + n) << v;  // consumed exactly what was written
  }
}

TEST(Varint, EncodedLengthGrowsBySevenBitGroups) {
  std::uint8_t buf[kMaxVarintBytes];
  EXPECT_EQ(put_varint(buf, 0), 1u);
  EXPECT_EQ(put_varint(buf, 0x7f), 1u);
  EXPECT_EQ(put_varint(buf, 0x80), 2u);
  EXPECT_EQ(put_varint(buf, 0x3fff), 2u);
  EXPECT_EQ(put_varint(buf, 0x4000), 3u);
  EXPECT_EQ(put_varint(buf, std::numeric_limits<std::uint64_t>::max()), 10u);
}

TEST(Varint, RejectsTruncatedInput) {
  std::uint8_t buf[kMaxVarintBytes];
  const std::size_t n = put_varint(buf, 0x123456789abcdef0ull);
  for (std::size_t cut = 0; cut < n; ++cut) {
    const std::uint8_t* p = buf;
    std::uint64_t out = 0;
    EXPECT_FALSE(get_varint(&p, buf + cut, &out)) << "cut at " << cut;
  }
}

TEST(Varint, RejectsOverlongAndOversizeEncodings) {
  // 11 continuation bytes: longer than any u64 needs.
  std::uint8_t too_long[11];
  std::memset(too_long, 0x80, 10);
  too_long[10] = 0x01;
  const std::uint8_t* p = too_long;
  std::uint64_t out = 0;
  EXPECT_FALSE(get_varint(&p, too_long + sizeof(too_long), &out));

  // 10 bytes whose last byte carries bits beyond the 64th: would alias.
  std::uint8_t overflow[10];
  std::memset(overflow, 0x80, 9);
  overflow[9] = 0x02;
  p = overflow;
  EXPECT_FALSE(get_varint(&p, overflow + sizeof(overflow), &out));

  // The canonical max encoding (last byte 0x01) is fine.
  std::uint8_t max_ok[10];
  std::memset(max_ok, 0xff, 9);
  max_ok[9] = 0x01;
  p = max_ok;
  ASSERT_TRUE(get_varint(&p, max_ok + sizeof(max_ok), &out));
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
}

TEST(Varint, ZigzagRoundTripsSignedBoundaries) {
  const std::int64_t values[] = {0,
                                 1,
                                 -1,
                                 63,
                                 -64,
                                 64,
                                 -65,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::min() + 1};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  // Small magnitudes map to small codes (the whole point of the fold).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(Varint, RandomizedRoundTripSweep) {
  Rng rng;
  for (int i = 0; i < 10000; ++i) {
    // Bias toward small values and all widths: mask by a random bit count.
    const std::uint64_t v = rng.next() >> (rng.next() % 64);
    std::uint8_t buf[kMaxVarintBytes];
    const std::size_t n = put_varint(buf, v);
    const std::uint8_t* p = buf;
    std::uint64_t out = 0;
    ASSERT_TRUE(get_varint(&p, buf + n, &out));
    ASSERT_EQ(out, v);
    const std::int64_t s = static_cast<std::int64_t>(v);
    ASSERT_EQ(zigzag_decode(zigzag_encode(s)), s);
  }
}

// --- block round-trips ------------------------------------------------------

TEST(TraceCodecV2, RoundTripsMixedEventsWithoutSuppression) {
  std::vector<Event> events;
  Rng rng;
  sim::TimeNs t = 1000;
  for (int i = 0; i < 3000; ++i) {
    t += static_cast<sim::TimeNs>(rng.next() % 5000);
    events.push_back(make_event(
        t, static_cast<std::int32_t>(rng.next() % 7),
        static_cast<std::int32_t>(rng.next() % 4),
        static_cast<EventKind>(rng.next() % (static_cast<int>(EventKind::kMarker) + 1)),
        static_cast<std::int32_t>(rng.next() % 100),
        static_cast<std::int64_t>(rng.next())));
  }
  expect_roundtrip(events, /*suppress=*/false);
  expect_roundtrip(events, /*suppress=*/true);
}

TEST(TraceCodecV2, RoundTripsNegativeAndExtremeFields) {
  std::vector<Event> events;
  events.push_back(make_event(-1000, -3, -7, EventKind::kMarker, -42, -1));
  events.push_back(make_event(0, 0, 0, EventKind::kEnter, 0, 0));
  events.push_back(make_event(std::numeric_limits<std::int64_t>::max(),
                              std::numeric_limits<std::int32_t>::max(),
                              std::numeric_limits<std::int32_t>::min(), EventKind::kLeave,
                              std::numeric_limits<std::int32_t>::min(),
                              std::numeric_limits<std::int64_t>::min()));
  // The max->negative time step exercises a max-magnitude negative delta.
  events.push_back(make_event(std::numeric_limits<std::int64_t>::min() + 2, 1, 1,
                              EventKind::kMpiBegin, 5,
                              std::numeric_limits<std::int64_t>::max()));
  expect_roundtrip(events, /*suppress=*/false);
  expect_roundtrip(events, /*suppress=*/true);
}

TEST(TraceCodecV2, SpansMultipleBlocks) {
  std::vector<Event> events;
  for (std::size_t i = 0; i < 2 * kBlockRecords + 17; ++i) {
    events.push_back(make_event(static_cast<sim::TimeNs>(i * 3), 1, 0, EventKind::kEnter,
                                static_cast<std::int32_t>(i % 50)));
  }
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  const V2EncodeStats stats =
      encode_v2_blocks(events.data(), events.size(), &table, bytes);
  EXPECT_EQ(stats.records, events.size());
  const std::vector<Event> decoded = decode_all(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(same_event(decoded[i], events[i])) << "at " << i;
  }
}

TEST(TraceCodecV2, DeltaEncodingBeatsV1ByFourTimes) {
  // A realistic near-sorted stream: one pid, few tids, clustered codes,
  // small aux -- smg98's shape.  No repetition, so suppression is off.
  std::vector<Event> events;
  Rng rng;
  sim::TimeNs t = 123456789;
  for (int i = 0; i < 20000; ++i) {
    t += static_cast<sim::TimeNs>(100 + rng.next() % 900);
    events.push_back(make_event(t, 3, static_cast<std::int32_t>(rng.next() % 4),
                                (i % 2) == 0 ? EventKind::kEnter : EventKind::kLeave,
                                static_cast<std::int32_t>(rng.next() % 64),
                                static_cast<std::int64_t>(rng.next() % 128)));
  }
  std::vector<std::uint8_t> bytes;
  encode_v2_blocks(events.data(), events.size(), nullptr, bytes);
  // The retired version 1 spilled 36 bytes per event (a 32-byte record and
  // its CRC32).
  const double v1_bytes = static_cast<double>(events.size() * 36);
  EXPECT_LT(static_cast<double>(bytes.size()) * 4.0, v1_bytes)
      << "v2 bytes/event: " << static_cast<double>(bytes.size()) / events.size();
}

// --- redundancy suppression -------------------------------------------------

/// N repetitions of an enter/leave burst with a fixed stride: the Arafa
/// pattern the suppressor is built for.
std::vector<Event> burst_pattern(std::size_t reps, sim::TimeNs stride, sim::TimeNs t0 = 0) {
  std::vector<Event> events;
  for (std::size_t r = 0; r < reps; ++r) {
    const sim::TimeNs base = t0 + static_cast<sim::TimeNs>(r) * stride;
    events.push_back(make_event(base, 2, 0, EventKind::kEnter, 17, 5));
    events.push_back(make_event(base + 40, 2, 0, EventKind::kLeave, 17, -5));
  }
  return events;
}

TEST(TraceCodecV2, SuppressesRepeatedBurstsExactly) {
  const std::vector<Event> events = burst_pattern(500, 1000);
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  const V2EncodeStats stats =
      encode_v2_blocks(events.data(), events.size(), &table, bytes);
  EXPECT_EQ(stats.supers, 1u);
  EXPECT_EQ(stats.suppressed, events.size() - 2);  // all but the stored pattern
  // One super-record instead of a thousand plain ones.
  EXPECT_LT(bytes.size(), 200u);

  const std::vector<Event> decoded = decode_all(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(same_event(decoded[i], events[i])) << "at " << i;  // bit-exact times
  }
}

TEST(TraceCodecV2, SuppressionIsExactNotApproximate) {
  // Perturb one timestamp mid-repetition: the run must split around it and
  // still round-trip bit-exactly.
  std::vector<Event> events = burst_pattern(100, 1000);
  events[101].time += 1;
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  encode_v2_blocks(events.data(), events.size(), &table, bytes);
  const std::vector<Event> decoded = decode_all(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(same_event(decoded[i], events[i])) << "at " << i;
  }
}

TEST(TraceCodecV2, SuppressionHandlesLongerPeriods) {
  // Period-5 bursts (enter, 3 MPI ops, leave), repeated 200x.
  std::vector<Event> events;
  for (int r = 0; r < 200; ++r) {
    const sim::TimeNs base = r * 700;
    events.push_back(make_event(base, 1, 0, EventKind::kEnter, 9));
    events.push_back(make_event(base + 10, 1, 0, EventKind::kMpiBegin, 30));
    events.push_back(make_event(base + 20, 1, 0, EventKind::kMsgSend, 4, 4096));
    events.push_back(make_event(base + 30, 1, 0, EventKind::kMpiEnd, 30));
    events.push_back(make_event(base + 40, 1, 0, EventKind::kLeave, 9));
  }
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  const V2EncodeStats stats =
      encode_v2_blocks(events.data(), events.size(), &table, bytes);
  EXPECT_GE(stats.supers, 1u);
  EXPECT_EQ(stats.suppressed, events.size() - 5);
  const std::vector<Event> decoded = decode_all(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(same_event(decoded[i], events[i])) << "at " << i;
  }
}

TEST(TraceCodecV2, TableHintSpeedsRepeatDetection) {
  // Two spills of the same burst shape share one table: the second encode
  // should find its period via the memo.
  const std::vector<Event> a = burst_pattern(50, 1000, 0);
  const std::vector<Event> b = burst_pattern(50, 1000, 1000000);
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  encode_v2_blocks(a.data(), a.size(), &table, bytes);
  const V2EncodeStats second = encode_v2_blocks(b.data(), b.size(), &table, bytes);
  EXPECT_GE(second.table_hits, 1u);
  EXPECT_GE(table.hits(), 1u);
}

// --- suppression table bounding (satellite 2) -------------------------------

TEST(SuppressionTable, EvictsOldestInsertionFirst) {
  SuppressionTable table(2);
  table.note(100, 1);
  table.note(200, 2);
  table.note(100, 3);  // refresh: must NOT reorder (dpcl dedup semantics)
  table.note(300, 4);  // evicts 100 (oldest insertion), not 200
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.lookup(100), 0u);
  EXPECT_EQ(table.lookup(200), 2u);
  EXPECT_EQ(table.lookup(300), 4u);
  table.note(400, 5);  // now 200 is oldest
  EXPECT_EQ(table.lookup(200), 0u);
  EXPECT_EQ(table.lookup(300), 4u);
  EXPECT_EQ(table.lookup(400), 5u);
  EXPECT_EQ(table.evictions(), 2u);
}

TEST(SuppressionTable, ZeroCapacityNeverStores) {
  SuppressionTable table(0);
  table.note(1, 1);
  table.note(2, 2);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.lookup(1), 0u);
  EXPECT_EQ(table.evictions(), 0u);
}

TEST(SuppressionTable, AdversarialNonRepeatingTraceStaysBounded) {
  // Thousands of distinct short-repeat patterns (each fires the suppressor
  // once and never recurs): every one lands in the memo, so a tiny capacity
  // must evict (deterministically) instead of growing without bound.
  constexpr std::size_t kCapacity = 16;
  const auto spill_events = [](int spill, std::vector<Event>& events) {
    events.clear();
    for (int p = 0; p < 500; ++p) {
      const std::int32_t code = spill * 1000 + p;  // new pattern every time
      const sim::TimeNs base = p * 200;
      events.push_back(make_event(base, 1, 0, EventKind::kEnter, code));
      events.push_back(make_event(base + 50, 1, 0, EventKind::kEnter, code));
      events.push_back(make_event(base + 100, 1, 0, EventKind::kEnter, code));
    }
  };
  SuppressionTable table(kCapacity);
  std::vector<Event> events;
  std::vector<std::uint8_t> bytes;
  std::uint64_t total_supers = 0;
  for (int spill = 0; spill < 8; ++spill) {
    spill_events(spill, events);
    bytes.clear();
    total_supers += encode_v2_blocks(events.data(), events.size(), &table, bytes).supers;
  }
  EXPECT_GT(total_supers, 0u);
  EXPECT_LE(table.size(), kCapacity);
  EXPECT_GT(table.evictions(), 0u);

  // Determinism: replaying the identical stream evicts identically.
  SuppressionTable replay(kCapacity);
  for (int spill = 0; spill < 8; ++spill) {
    spill_events(spill, events);
    bytes.clear();
    encode_v2_blocks(events.data(), events.size(), &replay, bytes);
  }
  EXPECT_EQ(replay.evictions(), table.evictions());
  EXPECT_EQ(replay.size(), table.size());
}

// --- torn-tail salvage on block frames (satellite 3) ------------------------

std::string write_temp(const std::vector<std::uint8_t>& bytes, std::size_t keep,
                       const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, std::min(keep, bytes.size()), f);
  std::fclose(f);
  return path;
}

/// Two blocks of plain records plus one whose tail is a super-record.
std::vector<std::uint8_t> three_block_run(std::size_t* per_block_records) {
  std::vector<Event> events;
  for (std::size_t i = 0; i < 2 * kBlockRecords; ++i) {
    events.push_back(make_event(static_cast<sim::TimeNs>(i * 10), 1, 0, EventKind::kEnter,
                                static_cast<std::int32_t>(i % 97)));
  }
  const std::vector<Event> burst =
      burst_pattern(64, 1000, static_cast<sim::TimeNs>(2 * kBlockRecords) * 10);
  events.insert(events.end(), burst.begin(), burst.end());
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  encode_v2_blocks(events.data(), events.size(), &table, bytes);
  *per_block_records = kBlockRecords;
  return bytes;
}

std::size_t block_span(const std::vector<std::uint8_t>& bytes, std::size_t offset) {
  return kBlockHeaderBytes + get_u32_le(bytes.data() + offset + 8);
}

TEST(TraceCodecV2, SalvageRecoversIntactLeadingBlocks) {
  std::size_t per_block = 0;
  const std::vector<std::uint8_t> bytes = three_block_run(&per_block);
  const std::string path = write_temp(bytes, bytes.size(), "v2_salvage_full.bin");
  const BlockSalvage all = salvage_v2_scan(path);
  EXPECT_EQ(all.blocks, 3u);
  EXPECT_EQ(all.records, 2 * per_block + 128);
  std::remove(path.c_str());
}

TEST(TraceCodecV2, TearMidBlockHeaderKeepsEarlierBlocks) {
  std::size_t per_block = 0;
  const std::vector<std::uint8_t> bytes = three_block_run(&per_block);
  const std::size_t block0 = block_span(bytes, 0);
  // Tear 7 bytes into block 1's header.
  const std::string path = write_temp(bytes, block0 + 7, "v2_tear_header.bin");
  const BlockSalvage salvage = salvage_v2_scan(path);
  EXPECT_EQ(salvage.blocks, 1u);
  EXPECT_EQ(salvage.records, per_block);
  std::remove(path.c_str());
}

TEST(TraceCodecV2, TearMidVarintInvalidatesOnlyTornBlock) {
  std::size_t per_block = 0;
  const std::vector<std::uint8_t> bytes = three_block_run(&per_block);
  const std::size_t block0 = block_span(bytes, 0);
  const std::size_t block1 = block_span(bytes, block0);
  // Tear inside block 1's payload -- mid-item, almost surely mid-varint.
  const std::string path =
      write_temp(bytes, block0 + kBlockHeaderBytes + block1 / 2, "v2_tear_varint.bin");
  const BlockSalvage salvage = salvage_v2_scan(path);
  EXPECT_EQ(salvage.blocks, 1u);
  EXPECT_EQ(salvage.records, per_block);
  std::remove(path.c_str());
}

TEST(TraceCodecV2, TearMidSuperRecordDropsItsWholeBlock) {
  std::size_t per_block = 0;
  const std::vector<std::uint8_t> bytes = three_block_run(&per_block);
  // Block 2 ends with a 128-record suppressed burst; cut its last 4 bytes
  // so the tear lands inside the super-record's encoded pattern.
  const std::string path = write_temp(bytes, bytes.size() - 4, "v2_tear_super.bin");
  const BlockSalvage salvage = salvage_v2_scan(path);
  EXPECT_EQ(salvage.blocks, 2u);
  EXPECT_EQ(salvage.records, 2 * per_block);
  std::remove(path.c_str());
}

TEST(TraceCodecV2, CorruptPayloadByteFailsCrc) {
  std::size_t per_block = 0;
  std::vector<std::uint8_t> bytes = three_block_run(&per_block);
  const std::size_t block0 = block_span(bytes, 0);
  bytes[block0 + kBlockHeaderBytes + 11] ^= 0x20;  // flip one payload bit of block 1
  const std::string path = write_temp(bytes, bytes.size(), "v2_corrupt.bin");
  const BlockSalvage salvage = salvage_v2_scan(path);
  EXPECT_EQ(salvage.blocks, 1u);
  EXPECT_EQ(salvage.records, per_block);
  std::remove(path.c_str());
}

// A CRC only proves the bytes are the writer's: a block whose CRC is valid
// for a malformed payload (a writer bug, or a crafted file) must still fail
// closed, each way the framing, dictionaries, plain records or super-records
// can be wrong.
TEST(TraceCodecV2, CrcValidMalformedBlocksFailClosed) {
  using Bytes = std::vector<std::uint8_t>;
  auto varints = [](std::initializer_list<std::uint64_t> values) {
    Bytes out;
    for (const std::uint64_t v : values) {
      std::uint8_t buf[kMaxVarintBytes];
      out.insert(out.end(), buf, buf + put_varint(buf, v));
    }
    return out;
  };
  auto cat = [](std::initializer_list<Bytes> parts) {
    Bytes out;
    for (const Bytes& part : parts) out.insert(out.end(), part.begin(), part.end());
    return out;
  };
  // Header and CRC valid for `payload`; `length` overrides the length field.
  auto framed = [](std::uint32_t count, const Bytes& payload, std::uint64_t length) {
    Bytes block(kBlockHeaderBytes);
    std::memcpy(block.data(), kBlockMagic, 4);
    put_u32_le(block.data() + 8, static_cast<std::uint32_t>(length));
    put_u32_le(block.data() + 12, count);
    block.insert(block.end(), payload.begin(), payload.end());
    put_u32_le(block.data() + 4, crc32(block.data() + 8, 8 + payload.size()));
    return block;
  };
  const auto zz = [](std::int64_t v) { return zigzag_encode(v); };
  const Bytes dicts = varints({1, 0, 1, 0, 1, 0});  // pids, tids, codes: {0} each
  const Bytes enter = {static_cast<std::uint8_t>(EventKind::kEnter)};
  const Bytes bad_kind = {static_cast<std::uint8_t>(EventKind::kMarker) + 1};
  const Bytes super = {kSuperTag};
  const Bytes plain = cat({enter, varints({zz(5), 0, 0, 0, 0})});
  const std::uint64_t int32_max = std::numeric_limits<std::int32_t>::max();

  struct Case {
    const char* what;
    std::uint32_t count;
    Bytes payload;
    bool framing;  ///< rejected by reset(), not by decoding
  };
  const std::vector<Case> cases = {
      {"records but no payload", 1, {}, true},
      {"payload but no records", 0, varints({1}), true},
      {"more records than a block holds", kBlockRecords + 1, cat({dicts, plain}), true},
      {"truncated dictionary size", 1, {0x80}, true},
      {"dictionary larger than a block", 1, varints({kBlockRecords + 1}), true},
      {"empty dictionary", 1, varints({0}), true},
      {"truncated first dictionary value", 1, varints({1}), true},
      {"dictionary value outside int32", 1, varints({1, zz(std::int64_t{1} << 40)}), true},
      {"truncated dictionary delta", 1, varints({2, 0}), true},
      {"zero dictionary delta", 1, varints({2, 0, 0}), true},
      {"dictionary delta past int32", 1, varints({2, zz(int32_max - 1), 2}), true},
      {"count promises more than the payload", 2, cat({dicts, plain}), false},
      {"undefined event kind", 1, cat({dicts, bad_kind, varints({0, 0, 0, 0, 0})}), false},
      {"truncated time", 1, cat({dicts, enter}), false},
      {"pid index out of range", 1, cat({dicts, enter, varints({0, 1, 0, 0, 0})}), false},
      {"tid index out of range", 1, cat({dicts, enter, varints({0, 0, 1, 0, 0})}), false},
      {"code index out of range", 1, cat({dicts, enter, varints({0, 0, 0, 1, 0})}), false},
      {"truncated aux", 1, cat({dicts, enter, varints({0, 0, 0, 0})}), false},
      {"reserved bits beside the super bit", 1, cat({dicts, {kSuperTag | 1}}), false},
      {"zero super period", 2, cat({dicts, super, varints({0, 2, 0}), plain}), false},
      {"super period too long", 34,
       cat({dicts, super, varints({kMaxSuppressionPeriod + 1, 2, 0})}), false},
      {"single-repetition super", 2, cat({dicts, super, varints({1, 1, 0}), plain}), false},
      {"truncated super stride", 2, cat({dicts, super, varints({1, 2})}), false},
      {"truncated super pattern", 4, cat({dicts, super, varints({2, 2, 0}), plain}), false},
      {"nested super", 2, cat({dicts, super, varints({1, 2, 0}), super}), false},
      {"malformed pattern record", 2, cat({dicts, super, varints({1, 2, 0}), bad_kind}),
       false},
  };
  for (const Case& c : cases) {
    const Bytes block = framed(c.count, c.payload, c.payload.size());
    BlockDecoder decoder;
    std::size_t block_bytes = 0;
    std::uint32_t count = 0;
    const bool framed_ok = decoder.reset(block.data(), block.size(), &block_bytes, &count);
    ASSERT_EQ(framed_ok, !c.framing) << c.what;
    if (!framed_ok) continue;
    Event e;
    std::uint32_t decoded = 0;
    while (decoder.next(e)) ++decoded;
    EXPECT_TRUE(decoder.failed()) << c.what;
    EXPECT_LT(decoded, c.count) << c.what;
  }

  // A length field past the largest payload is rejected before the CRC.
  const Bytes oversize = framed(1, cat({dicts, plain}), kMaxBlockPayloadBytes + 1);
  BlockDecoder decoder;
  std::size_t block_bytes = 0;
  std::uint32_t count = 0;
  EXPECT_FALSE(decoder.reset(oversize.data(), oversize.size(), &block_bytes, &count));
}

TEST(TraceShardV2, TornSpillSalvagesWholeBlocksOnly) {
  // Budget of 2*kBlockRecords records per run makes every run exactly two
  // blocks; run 1's bytes are cut 5 bytes into its second block, so the
  // shard must keep run 0 in full plus run 1's first block -- and nothing
  // of the torn block.
  const std::size_t per_run = 2 * kBlockRecords;
  ShardOptions options;
  options.spill_budget_bytes = per_run * sizeof(Event);
  options.spill_dir = ::testing::TempDir();
  std::size_t cut_at = 0;
  options.spill_fault = [&cut_at](std::int32_t, std::uint64_t run, std::size_t bytes) {
    return run == 1 ? cut_at : bytes;
  };
  std::vector<std::uint8_t> sample;
  {
    // Sizing pass: encode both runs standalone (replaying run 0 first so
    // the suppression-table state matches the shard's) to find run 1's
    // first block boundary.
    std::vector<Event> run0, run1;
    for (std::size_t i = 0; i < per_run; ++i) {
      run0.push_back(make_event(static_cast<sim::TimeNs>(i), 1, 0, EventKind::kEnter,
                                static_cast<std::int32_t>(i % 31)));
    }
    for (std::size_t i = per_run; i < 2 * per_run; ++i) {
      run1.push_back(make_event(static_cast<sim::TimeNs>(i), 1, 0, EventKind::kEnter,
                                static_cast<std::int32_t>(i % 31)));
    }
    SuppressionTable table(kSuppressionTableCapacity);
    std::vector<std::uint8_t> scratch;
    encode_v2_blocks(run0.data(), run0.size(), &table, scratch);
    encode_v2_blocks(run1.data(), run1.size(), &table, sample);
  }
  cut_at = block_span(sample, 0) + 5;  // run 1: block 0 intact, block 1 torn

  TraceShard shard(1, options);
  for (std::size_t i = 0; i < 2 * per_run; ++i) {
    shard.append(make_event(static_cast<sim::TimeNs>(i), 1, 0, EventKind::kEnter,
                            static_cast<std::int32_t>(i % 31)));
  }
  EXPECT_TRUE(shard.torn());
  EXPECT_EQ(shard.salvaged_records(), kBlockRecords);
  EXPECT_EQ(shard.lost_records(), per_run - kBlockRecords);

  // The merged view serves run 0 in full plus run 1's intact first block.
  auto cursor = shard.cursor();
  Event e;
  std::size_t read = 0;
  while (cursor->next(e)) {
    ASSERT_EQ(e.time, static_cast<sim::TimeNs>(read));
    ++read;
  }
  EXPECT_EQ(read, per_run + kBlockRecords);
}

// --- store-level equivalence ------------------------------------------------

TraceStore build_store(std::size_t budget_records) {
  TraceStore::Options options;
  options.spill_budget_bytes = budget_records * sizeof(Event);
  options.spill_dir = ::testing::TempDir();
  TraceStore store(options);
  Rng rng;
  for (int pid = 0; pid < 3; ++pid) {
    sim::TimeNs t = 5000 * pid;
    for (int i = 0; i < 1500; ++i) {
      t += static_cast<sim::TimeNs>(rng.next() % 300);
      store.append(make_event(t, pid, static_cast<std::int32_t>(rng.next() % 2),
                              (i % 2) == 0 ? EventKind::kEnter : EventKind::kLeave,
                              static_cast<std::int32_t>(rng.next() % 40),
                              static_cast<std::int64_t>(rng.next() % 1000)));
    }
  }
  return store;
}

/// Digest of build_store's trace, as the retired version 1 spilled it.
constexpr std::uint64_t kPinnedStoreDigest = 0xdf6f6fefa48035ddull;

TEST(TraceStoreV2, DigestsMatchV1AcrossSpillFormats) {
  // Spilled blocks and the in-memory store both digest to the pin.
  const TraceStore spilled = build_store(256);
  const TraceStore in_memory = build_store(0);
  EXPECT_EQ(spilled.salvage_stats().torn_shards, 0u);  // sanity: healthy runs
  EXPECT_EQ(spilled.digest(), in_memory.digest());
  EXPECT_EQ(spilled.digest(), kPinnedStoreDigest);

  const auto volume = spilled.volume_stats();
  EXPECT_EQ(volume.spilled_records, 3u * 1500u - 3u * (1500u % 256u));
  // Under half the retired 36-byte framed record.
  EXPECT_LT(volume.bytes_per_event() * 2, 36.0);
}

TEST(TraceStoreV2, BinaryFileRoundTripsInBothFormats) {
  // The binary file reads back to the pinned digest; the text file holds a
  // comment line and one line per record.
  const TraceStore store = build_store(0);  // no spill
  const std::string text_path = ::testing::TempDir() + "/store_v2.txt";
  const std::string path = ::testing::TempDir() + "/store_v2.bin";
  store.write(text_path);
  store.write_binary(path);

  TraceStore loaded;
  auto cursor = TraceStore::open_binary(path);
  for (Event e; cursor->next(e);) loaded.append(e);
  EXPECT_EQ(loaded.size(), store.size());
  EXPECT_EQ(loaded.digest(), kPinnedStoreDigest);
  std::ifstream text(text_path);
  std::size_t lines = 0;
  for (std::string line; std::getline(text, line);) ++lines;
  EXPECT_EQ(lines, store.size() + 1);

  // Under half the retired fixed-record file (16-byte header + 32 bytes per
  // record).
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_LT(static_cast<std::size_t>(in.tellg()) * 2, kTraceHeaderBytes + 32 * store.size());
  std::remove(text_path.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dyntrace::vt
