// The binary trace encoding (DESIGN.md §6).
//
// A trace file is a 16-byte file header followed by a block stream; a spill
// run is a bare block stream.  All integers are little-endian.
//
//   file header (16 bytes):
//     [0..4)   magic "DTRC"
//     [4..6)   format version (u16; kTraceVersion)
//     [6..8)   record size (u16; 0 = variable-length records)
//     [8..16)  record count (u64)
//
// The version field outlives the retired version 1 (fixed 32-byte records):
// a reader rejects every version but its own by name instead of misparsing.
//
// A block stream is a sequence of self-contained *blocks*:
//
//   block header (16 bytes):
//     [0..4)   block magic "DTB2"
//     [4..8)   CRC32 over bytes [8 .. 16 + payload length)
//     [8..12)  payload length in bytes (u32, <= kMaxBlockPayloadBytes)
//     [12..16) record count after super-record expansion (u32)
//   payload:
//     dict(pid) dict(tid) dict(code)   -- sorted unique values per block:
//                                         varint n, zigzag(first),
//                                         then n-1 ascending varint deltas
//     item*                            -- records and super-records
//
//   item   := plain | super
//   plain  := tag(kind) varint zigzag(time - prev_time)
//             varint pid_index varint tid_index varint code_index
//             varint zigzag(aux)
//   super  := tag(0x80) varint P varint N varint zigzag(stride)
//             P x plain                -- the pattern, deltas chained as
//                                         if the records were plain
//
// A super-record is N consecutive repetitions of a P-record call-burst
// pattern whose non-time fields repeat exactly and whose timestamps advance
// by exactly `stride` per repetition -- so expansion is bit-exact, and
// aggregate time is carried implicitly with zero error (the Arafa-style
// time compensation).  Decoders expand lazily: O(P) state, never N*P.
//
// Blocks are the CRC/salvage granule: a run torn mid-write keeps every
// complete, CRC-valid block before the tear (tears mid-header, mid-varint
// and mid-super all invalidate exactly the torn block).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "vt/event.hpp"

namespace dyntrace::vt {

// --- file header -------------------------------------------------------------

inline constexpr std::uint8_t kTraceMagic[4] = {'D', 'T', 'R', 'C'};
/// The one format version this reader and writer speak.
inline constexpr std::uint16_t kTraceVersion = 2;
inline constexpr std::size_t kTraceHeaderBytes = 16;

/// Serialize the file header (version kTraceVersion, record size 0) into
/// `out` (kTraceHeaderBytes bytes).
void encode_trace_header(std::uint64_t record_count, std::uint8_t* out);

/// Validate magic, version and record size of a header and return its
/// record count.  Throws dyntrace::Error, mentioning `context` (typically the
/// file path), on a mismatch or if fewer than kTraceHeaderBytes bytes are
/// present; any other version, the retired version 1 included, is rejected
/// naming both the file's version and the reader's.
std::uint64_t decode_trace_header(const std::uint8_t* data, std::size_t size,
                                  const std::string& context);

/// True if `kind` is a defined EventKind discriminant.
inline bool valid_event_kind(std::uint8_t kind) {
  return kind <= static_cast<std::uint8_t>(EventKind::kMarker);
}

// --- little-endian, varint and CRC primitives --------------------------------

void put_u32_le(std::uint8_t* out, std::uint32_t v);
std::uint32_t get_u32_le(const std::uint8_t* in);

/// Longest LEB128 encoding of a u64 (10 bytes).
inline constexpr std::size_t kMaxVarintBytes = 10;

/// LEB128-encode `v` into `out` (at least kMaxVarintBytes writable bytes);
/// returns the encoded length.
inline std::size_t put_varint(std::uint8_t* out, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80u) {
    out[n++] = static_cast<std::uint8_t>(v | 0x80u);
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

/// Decode one LEB128 varint from [*p, end); advances *p past it.  Returns
/// false (without advancing past `end`) on truncation or overlong input.
/// Inline with a one-byte fast path: the block decoder calls this five
/// times per record, and most deltas and dictionary indices fit 7 bits.
inline bool get_varint(const std::uint8_t** p, const std::uint8_t* end, std::uint64_t* out) {
  const std::uint8_t* cur = *p;
  if (cur < end && *cur < 0x80u) {
    *out = *cur;
    *p = cur + 1;
    return true;
  }
  std::uint64_t v = 0;
  int shift = 0;
  while (cur < end && shift < 70) {
    const std::uint8_t byte = *cur++;
    v |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) {
      // Reject overlong 10-byte encodings whose last byte carries bits a
      // u64 cannot hold (they would silently alias another value).
      if (shift == 63 && byte > 1) return false;
      *p = cur;
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated (ran off `end`) or longer than 10 bytes
}

/// Zig-zag fold: small negative and positive deltas both become small
/// unsigned varints.
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `size` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

// --- blocks ------------------------------------------------------------------

inline constexpr std::uint8_t kBlockMagic[4] = {'D', 'T', 'B', '2'};
inline constexpr std::size_t kBlockHeaderBytes = 16;
/// Input records encoded per block (the dictionary + salvage granule).
inline constexpr std::size_t kBlockRecords = 4096;
/// Sanity bound used by readers before trusting a block's length field.
inline constexpr std::size_t kMaxBlockPayloadBytes = std::size_t{1} << 24;
/// Longest call-burst pattern the suppressor searches for.
inline constexpr std::size_t kMaxSuppressionPeriod = 16;
/// Bound on each writer's SuppressionTable (one per shard, one per file).
inline constexpr std::size_t kSuppressionTableCapacity = 1024;
/// Record-item tag bit marking a super-record.
inline constexpr std::uint8_t kSuperTag = 0x80;

/// Bounded memo of call-burst patterns the suppressor has collapsed, keyed
/// by a fingerprint of the pattern head.  Lookups steer the period search
/// (the cached period is tried first), and the bound is the memory-safety
/// contract: an adversarial trace that streams never-repeating patterns
/// evicts in deterministic insertion (FIFO) order -- mirroring the dpcl
/// dedup table -- instead of growing without limit.  One table per shard,
/// persisting across that shard's spills.
class SuppressionTable {
 public:
  explicit SuppressionTable(std::size_t capacity) : capacity_(capacity) {}

  /// Cached period for a pattern-head fingerprint; 0 = not cached.
  std::uint32_t lookup(std::uint64_t signature) const {
    const auto it = map_.find(signature);
    return it == map_.end() ? 0 : it->second;
  }

  /// Insert or refresh a detected pattern.  A full table evicts its oldest
  /// insertion first (refreshes do not reorder, exactly like dpcl dedup).
  void note(std::uint64_t signature, std::uint32_t period);

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evictions() const { return evictions_; }
  /// Lookups whose cached period matched again (the table's hit counter).
  std::uint64_t hits() const { return hits_; }
  void count_hit() { ++hits_; }

 private:
  std::size_t capacity_;
  std::unordered_map<std::uint64_t, std::uint32_t> map_;
  std::vector<std::uint64_t> fifo_;  ///< insertion order ring; head_ = oldest
  std::size_t head_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t hits_ = 0;
};

/// What one encode pass produced (all counts are logical records).
struct V2EncodeStats {
  std::uint64_t bytes = 0;       ///< encoded bytes appended to the output
  std::uint64_t records = 0;     ///< input records covered (= expanded count)
  std::uint64_t supers = 0;      ///< super-records emitted
  std::uint64_t suppressed = 0;  ///< records folded into supers beyond the stored pattern
  std::uint64_t table_hits = 0;  ///< detections where the cached period matched
};

/// Encode `count` (time-sorted) events as v2 blocks appended to `out`.
/// `table` steers and accounts suppression; pass nullptr to disable
/// suppression entirely (every record encodes plain).
V2EncodeStats encode_v2_blocks(const Event* events, std::size_t count,
                               SuppressionTable* table, std::vector<std::uint8_t>& out);

/// Streaming decoder for one block.  reset() validates framing and CRC
/// against the bytes at `block` (which must stay alive while decoding);
/// next() then yields expanded records one at a time.
class BlockDecoder {
 public:
  /// Validate the block at [block, block + available).  On success fills
  /// `block_bytes` (header + payload span to skip for the next block) and
  /// `record_count` (expanded), and returns true.  Returns false -- never
  /// throws -- on truncation, bad magic, an oversize length field, or a CRC
  /// mismatch, so salvage scans can probe torn tails safely.
  bool reset(const std::uint8_t* block, std::size_t available, std::size_t* block_bytes,
             std::uint32_t* record_count);

  /// Next expanded record; false at end of block or on a malformed payload
  /// (check failed() to distinguish -- CRC-valid blocks only fail on a
  /// writer bug or a deliberately crafted file).
  bool next(Event& out);

  /// Decode up to `max` records into `out` in one pass: the merge-path fast
  /// lane (one call per block keeps the parse state in registers instead of
  /// reloading it per record).  Returns the number decoded; stops early at
  /// end of block or on a malformed payload (check failed()).
  std::uint32_t drain(Event* out, std::uint32_t max);

  bool failed() const { return failed_; }

 private:
  /// Read one dictionary; false unless its values ascend strictly and all
  /// fit the int32 Event field they feed.
  bool read_dict(std::vector<std::int32_t>& dict);
  bool decode_plain(std::uint8_t tag, Event& out);

  const std::uint8_t* pos_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::uint32_t remaining_ = 0;
  bool failed_ = false;

  std::vector<std::int32_t> pids_;
  std::vector<std::int32_t> tids_;
  std::vector<std::int32_t> codes_;
  std::uint64_t prev_time_ = 0;

  // Lazy super-record expansion state: O(pattern) memory however large the
  // repeat count is.
  std::vector<Event> pattern_;
  std::uint64_t stride_ = 0;
  std::uint64_t reps_left_ = 0;   ///< repetitions still to emit (incl. current)
  std::size_t pattern_pos_ = 0;   ///< next pattern slot within the current rep
  std::uint64_t rep_offset_ = 0;  ///< stride * reps emitted so far
};

/// Salvage scan over a bare block sequence (a spill run): leading intact
/// blocks and their expanded record total, stopping at the first torn or
/// corrupt block.  Every counted record is guaranteed decodable.
struct BlockSalvage {
  std::uint64_t blocks = 0;
  std::uint64_t records = 0;
};
BlockSalvage salvage_v2_scan(const std::string& path);

}  // namespace dyntrace::vt
