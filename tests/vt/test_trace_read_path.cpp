// The trace read and write paths against fixed answers: golden bytes of a
// written trace, the CRC-32 of the block framing, in-place tail ordering,
// and fail-closed parsing of ids that do not fit an Event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "support/common.hpp"
#include "vt/trace_codec_v2.hpp"
#include "vt/trace_store.hpp"

namespace dyntrace::vt {
namespace {

namespace fs = std::filesystem;

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

bool same_event(const Event& a, const Event& b) {
  return a.time == b.time && a.pid == b.pid && a.tid == b.tid && a.kind == b.kind &&
         a.code == b.code && a.aux == b.aux;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// A fresh, empty directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// 64,000 records over 8 ranks, 16 blocks: a solo call-burst phase on rank
/// 0 at an exact stride (which the encoder folds into super-records), then
/// all ranks interleaving jittered sends and MPI calls, rank 3 on two
/// threads.  Built from a local LCG so the bytes do not depend on any
/// library generator.
TraceStore golden_store() {
  TraceStore store;
  std::uint64_t lcg = 12345;
  const auto next = [&lcg](std::uint64_t bound) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::int64_t>((lcg >> 33) % bound);
  };
  for (int k = 0; k < 1000; ++k) {
    const sim::TimeNs t = k * 100;
    store.append(make_event(t, 0, 0, EventKind::kEnter, 1));
    store.append(make_event(t + 10, 0, 0, EventKind::kEnter, 2));
    store.append(make_event(t + 40, 0, 0, EventKind::kLeave, 2));
    store.append(make_event(t + 60, 0, 0, EventKind::kLeave, 1));
  }
  const sim::TimeNs t0 = 200000;
  for (std::int32_t pid = 0; pid < 8; ++pid) {
    for (int k = 0; k < 1500; ++k) {
      const sim::TimeNs t = t0 + k * 997 + pid * 13 + next(50);
      const std::int32_t tid = (pid == 3 && k % 2 == 1) ? 1 : 0;
      const std::int32_t fn = 3 + pid % 2;
      store.append(make_event(t, pid, tid, EventKind::kEnter, fn));
      store.append(make_event(t + 5, pid, tid, EventKind::kMsgSend, (pid + 1) % 8, next(4096)));
      store.append(make_event(t + 9, pid, tid, EventKind::kMpiBegin, 4));
      store.append(make_event(t + 20 + next(30), pid, tid, EventKind::kMpiEnd, 4, next(100)));
      store.append(make_event(t + 80, pid, tid, EventKind::kLeave, fn));
    }
  }
  return store;
}

// Recorded from the encoder before its dense dictionaries, in-place
// payload and slicing-by-8 CRC: the rewrite must not move a byte.
constexpr std::uint64_t kGoldenFileHash = 0xe1562c7ef1ee1d4aull;
constexpr std::size_t kGoldenFileBytes = 378348;

TEST(TraceGolden, WriteBinaryBytesMatchRecordedHash) {
  const TraceStore store = golden_store();
  ASSERT_EQ(store.size(), 64000u);
  const std::string path = fresh_dir("golden-bytes") + "/golden.dtrc";
  store.write_binary(path);
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  fs::remove(path);

  // The file body is one encode pass over the merged stream, super-records
  // included, and spans many blocks.
  const std::vector<Event> merged = store.merged();
  SuppressionTable table(kSuppressionTableCapacity);
  std::vector<std::uint8_t> body;
  const V2EncodeStats stats = encode_v2_blocks(merged.data(), merged.size(), &table, body);
  EXPECT_GT(stats.supers, 0u);
  EXPECT_GT(merged.size(), 8 * kBlockRecords);
  ASSERT_EQ(bytes.size(), kTraceHeaderBytes + body.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(), bytes.begin() + kTraceHeaderBytes));

  EXPECT_EQ(bytes.size(), kGoldenFileBytes);
  EXPECT_EQ(fnv1a(bytes), kGoldenFileHash) << std::hex << fnv1a(bytes);
}

/// The bytewise reference CRC-32 (IEEE, reflected), one table lookup per byte.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t size) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    table[i] = c;
  }
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SlicingMatchesBytewiseAtEveryLengthAndOffset) {
  std::vector<std::uint8_t> bytes(64 + 8);
  std::uint32_t x = 0x9e3779b9u;
  for (auto& b : bytes) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      ASSERT_EQ(crc32(bytes.data() + offset, length),
                crc32_bytewise(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

/// One rank whose threads log out of order: tid 1 runs behind tid 0, and
/// equal keys repeat, so only a stable sort reproduces the stream.
std::vector<Event> interleaved_tids() {
  std::vector<Event> events;
  for (int k = 0; k < 300; ++k) {
    const std::int32_t tid = k % 3;
    const sim::TimeNs t = 1000 + k * 7 - (tid == 1 ? 40 : 0) - (k % 5 == 0 ? 15 : 0);
    events.push_back(make_event(t, 2, tid, EventKind::kMarker, k, k % 4));
    if (k % 11 == 0) events.push_back(make_event(t, 2, tid, EventKind::kMarker, -k));
  }
  return events;
}

// TraceStore::digest() of interleaved_tids(), recorded before tails were
// sorted in place.
constexpr std::uint64_t kInterleavedDigest = 0x01f50ee934565159ull;

TEST(TraceShardReads, OutOfOrderTailReadsTheStableSortedStream) {
  const std::vector<Event> events = interleaved_tids();
  std::vector<Event> reference = events;
  std::stable_sort(reference.begin(), reference.end(), EventOrder{});
  ASSERT_FALSE(std::equal(events.begin(), events.end(), reference.begin(), same_event));

  TraceStore store;
  for (const Event& e : events) store.append(e);
  for (int read = 0; read < 2; ++read) {  // the second read sees the sorted tail
    const std::vector<Event> merged = store.merged();
    const std::vector<Event> process = store.for_process(2);
    ASSERT_EQ(merged.size(), reference.size());
    ASSERT_EQ(process.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_TRUE(same_event(merged[i], reference[i])) << "read " << read << " at " << i;
      ASSERT_TRUE(same_event(process[i], reference[i])) << "read " << read << " at " << i;
    }
    EXPECT_EQ(store.digest(), kInterleavedDigest) << std::hex << store.digest();
  }
}

/// Bytes of the one spill run a store wrote into `dir`.
std::vector<std::uint8_t> only_run(const std::string& dir) {
  std::vector<fs::path> runs;
  for (const auto& entry : fs::directory_iterator(dir)) runs.push_back(entry.path());
  EXPECT_EQ(runs.size(), 1u);
  return runs.empty() ? std::vector<std::uint8_t>{} : read_bytes(runs.front().string());
}

TEST(TraceShardReads, ReadBetweenAppendsLeavesSpillBytesUnchanged) {
  const std::vector<Event> events = interleaved_tids();
  const std::size_t half = events.size() / 2;
  const auto spill_into = [&](const std::string& dir, bool read_midway) {
    TraceStore::Options options;
    options.spill_budget_bytes = events.size() * sizeof(Event);  // spills on the last append
    options.spill_dir = dir;
    TraceStore store(options);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (read_midway && i == half) {
        // Sorts the first half in place; the spill then sorts the whole tail.
        EXPECT_EQ(store.merged().size(), half);
      }
      store.append(events[i]);
    }
    EXPECT_EQ(store.shard(2).spill_runs(), 1u);
    return only_run(dir);
  };
  const std::vector<std::uint8_t> untouched = spill_into(fresh_dir("spill-plain"), false);
  const std::vector<std::uint8_t> read = spill_into(fresh_dir("spill-read"), true);
  ASSERT_FALSE(untouched.empty());
  EXPECT_EQ(untouched, read);
}

// --- fail closed on ids that do not fit --------------------------------------

std::string write_text(const std::string& name, const std::string& body) {
  const std::string path = fresh_dir("text-" + name) + "/trace.txt";
  std::ofstream(path) << "# dyntrace trace v1: time_ns pid tid kind code aux\n" << body;
  return path;
}

void expect_error_at(const std::string& path, const std::string& where,
                     const std::string& what) {
  try {
    TraceStore::read(path);
    ADD_FAILURE() << "no error for " << path;
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(where), std::string::npos) << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

TEST(TraceStoreFailClosed, TextNegativePidIsLocated) {
  const std::string path = write_text("negative-pid", "10\t0\t0\tenter\t1\t0\n20\t-1\t0\tenter\t1\t0\n");
  expect_error_at(path, path + ":3", "pid -1");
}

TEST(TraceStoreFailClosed, TextIdsOutsideInt32AreLocated) {
  expect_error_at(write_text("wide-pid", "10\t2147483648\t0\tenter\t1\t0\n"),
                  "trace.txt:2", "pid 2147483648");
  expect_error_at(write_text("wide-tid", "10\t0\t-2147483649\tenter\t1\t0\n"),
                  "trace.txt:2", "tid -2147483649");
  expect_error_at(write_text("wide-code", "10\t0\t0\tmsg_send\t4294967297\t8\n"),
                  "trace.txt:2", "code 4294967297");
}

TEST(TraceStoreFailClosed, BinaryNegativePidIsRejectedWithPath) {
  // The codec carries any int32; a trace file's pid indexes analysis
  // tables, so reading one back rejects a negative pid.
  const Event events[] = {make_event(5, 0, 0, EventKind::kEnter, 1),
                          make_event(9, -4, 0, EventKind::kEnter, 1)};
  std::vector<std::uint8_t> file(kTraceHeaderBytes);
  encode_trace_header(2, file.data());
  encode_v2_blocks(events, 2, nullptr, file);
  const std::string path = fresh_dir("binary-negative-pid") + "/trace.dtrc";
  write_bytes(path, file);
  expect_error_at(path, path, "negative pid -4");
}

TEST(TraceStoreFailClosed, BinaryDictValueOutsideInt32IsRejectedWithPath) {
  // One CRC-valid block whose tid dictionary holds 2^31: well framed, but
  // not an id an Event can carry.
  std::vector<std::uint8_t> payload;
  const auto varint = [&payload](std::uint64_t v) {
    std::uint8_t tmp[kMaxVarintBytes];
    payload.insert(payload.end(), tmp, tmp + put_varint(tmp, v));
  };
  // Dictionaries: a count, then the zig-zag first value.
  for (const std::int64_t id : {std::int64_t{0}, std::int64_t{1} << 31, std::int64_t{7}}) {
    varint(1);
    varint(zigzag_encode(id));
  }
  // One plain record: kind, time delta, three dictionary indices, aux.
  payload.push_back(static_cast<std::uint8_t>(EventKind::kEnter));
  const std::uint64_t fields[] = {zigzag_encode(5), 0, 0, 0, zigzag_encode(0)};
  for (const std::uint64_t field : fields) varint(field);

  std::vector<std::uint8_t> file(kTraceHeaderBytes + kBlockHeaderBytes);
  encode_trace_header(1, file.data());
  std::uint8_t* block = file.data() + kTraceHeaderBytes;
  std::copy(std::begin(kBlockMagic), std::end(kBlockMagic), block);
  put_u32_le(block + 8, static_cast<std::uint32_t>(payload.size()));
  put_u32_le(block + 12, 1);
  file.insert(file.end(), payload.begin(), payload.end());
  block = file.data() + kTraceHeaderBytes;
  put_u32_le(block + 4, crc32(block + 8, 8 + payload.size()));
  const std::string path = fresh_dir("binary-wide-tid") + "/trace.dtrc";
  write_bytes(path, file);
  expect_error_at(path, path, "outside int32");
}

}  // namespace
}  // namespace dyntrace::vt
