#include "vt/trace_codec_v2.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "support/common.hpp"
#include "support/hash.hpp"

namespace dyntrace::vt {

namespace {

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint16_t get_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

/// Slicing-by-8 CRC-32 tables: t[0] is the classic bytewise table, and
/// t[k][b] is the CRC of byte b followed by k zero bytes, so eight table
/// lookups advance the CRC by eight bytes at once (same value as bytewise).
struct Crc32Tables {
  std::uint32_t t[8][256];
  constexpr Crc32Tables() : t{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
};

constexpr Crc32Tables kCrc32{};

constexpr std::uint64_t fnv_prime_pow(int k) {
  std::uint64_t p = 1;
  for (int i = 0; i < k; ++i) p *= kFnvPrime;
  return p;
}

/// One FNV-1a step per byte of a u64 whose bytes past the first `kBytes`
/// are zero.  A zero byte only multiplies by the prime, so those steps fold
/// into one multiply by a prime power: the hash is bit-identical to eight
/// byte steps.
template <int kBytes>
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < kBytes; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  if constexpr (kBytes < 8) {
    constexpr std::uint64_t kZeroBytes = fnv_prime_pow(8 - kBytes);
    h *= kZeroBytes;
  }
  return h;
}

/// FNV-1a over the non-time fields, each widened to u64: the suppressor's
/// record fingerprint.  Equal fields always hash equal, so a signature
/// mismatch is a cheap early-out before the exact field compare (collisions
/// only cost a compare).
std::uint64_t field_signature(const Event& e) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv_mix<1>(h, static_cast<std::uint8_t>(e.kind));
  h = fnv_mix<4>(h, static_cast<std::uint32_t>(e.pid));
  h = fnv_mix<4>(h, static_cast<std::uint32_t>(e.tid));
  h = fnv_mix<4>(h, static_cast<std::uint32_t>(e.code));
  return fnv_mix<8>(h, static_cast<std::uint64_t>(e.aux));
}

bool same_fields(const Event& a, const Event& b) {
  return a.kind == b.kind && a.pid == b.pid && a.tid == b.tid && a.code == b.code &&
         a.aux == b.aux;
}

/// One id column of a block: its dictionary (sorted unique values) and each
/// record's index into it.
struct ColumnDict {
  std::vector<std::int64_t> values;
  std::vector<std::uint32_t> index;  ///< per record
  std::vector<std::uint32_t> slots;  ///< dense offset table (value - lo -> index)
};

/// Build one column's dictionary and indices.  A small value range (ids,
/// ranks, symbol and op codes) goes through a dense offset table: mark the
/// values present, number them in one ascending sweep, then look every
/// record up directly.  A wide range falls back to sort + unique and a
/// binary search per record.  Both yield the same dictionary and indices.
void build_column(const Event* events, std::size_t n, std::int32_t Event::*field,
                  ColumnDict& col) {
  std::int32_t lo = events[0].*field;
  std::int32_t hi = lo;
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, events[i].*field);
    hi = std::max(hi, events[i].*field);
  }
  const std::uint64_t range =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) - lo) + 1;
  col.values.clear();
  col.index.resize(n);
  if (range <= 4 * static_cast<std::uint64_t>(n)) {
    col.slots.assign(static_cast<std::size_t>(range), 0);
    for (std::size_t i = 0; i < n; ++i) col.slots[events[i].*field - lo] = 1;
    for (std::size_t r = 0; r < col.slots.size(); ++r) {
      if (col.slots[r] == 0) continue;
      col.slots[r] = static_cast<std::uint32_t>(col.values.size());
      col.values.push_back(static_cast<std::int64_t>(lo) + static_cast<std::int64_t>(r));
    }
    for (std::size_t i = 0; i < n; ++i) col.index[i] = col.slots[events[i].*field - lo];
    return;
  }
  for (std::size_t i = 0; i < n; ++i) col.values.push_back(events[i].*field);
  std::sort(col.values.begin(), col.values.end());
  col.values.erase(std::unique(col.values.begin(), col.values.end()), col.values.end());
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = std::lower_bound(col.values.begin(), col.values.end(), events[i].*field);
    col.index[i] = static_cast<std::uint32_t>(it - col.values.begin());
  }
}

std::uint8_t* put_dict(std::uint8_t* p, const std::vector<std::int64_t>& dict) {
  p += put_varint(p, dict.size());
  if (dict.empty()) return p;
  p += put_varint(p, zigzag_encode(dict[0]));
  for (std::size_t i = 1; i < dict.size(); ++i) {
    p += put_varint(p, static_cast<std::uint64_t>(dict[i]) -
                           static_cast<std::uint64_t>(dict[i - 1]));
  }
  return p;
}

struct BlockDicts {
  ColumnDict pids, tids, codes;
};

// Worst-case item sizes.  Dictionary indices and repeat counts stay below
// kBlockRecords < 2^14, so their varints take at most 2 bytes; a period
// (<= kMaxSuppressionPeriod) takes 1.
static_assert(kBlockRecords < (std::size_t{1} << 14) && kMaxSuppressionPeriod < 0x80);
constexpr std::size_t kMaxPlainBytes = 1 + kMaxVarintBytes + 3 * 2 + kMaxVarintBytes;
constexpr std::size_t kMaxSuperHeaderBytes = 1 + 1 + 2 + kMaxVarintBytes;

/// Upper bound on one block's payload: the three dictionaries, at most one
/// plain item per record, and at most one super-record header per two
/// records (a super-record replaces at least two).
std::size_t payload_bound(std::size_t n, const BlockDicts& d) {
  const std::size_t dict_values = d.pids.values.size() + d.tids.values.size() +
                                  d.codes.values.size();
  return (3 + dict_values) * kMaxVarintBytes + n * kMaxPlainBytes +
         (n / 2) * kMaxSuperHeaderBytes;
}

/// How many consecutive repetitions of the period-P pattern starting at `i`
/// exist in [i, n), counting the pattern itself.  Returns 0 unless there are
/// at least two repetitions with exactly-equal fields and exactly-stride
/// timestamps (u64 wrap arithmetic, so pathological times cannot UB).
std::uint64_t count_reps(const Event* ev, const std::uint64_t* sigs, std::size_t n,
                         std::size_t i, std::size_t period, std::uint64_t* stride_out) {
  if (period == 0 || period > kMaxSuppressionPeriod || i + 2 * period > n) return 0;
  for (std::size_t j = 0; j < period; ++j) {
    if (sigs[i + j] != sigs[i + period + j]) return 0;
  }
  const std::uint64_t stride = static_cast<std::uint64_t>(ev[i + period].time) -
                               static_cast<std::uint64_t>(ev[i].time);
  std::uint64_t reps = 1;
  while (i + (reps + 1) * period <= n) {
    bool ok = true;
    for (std::size_t j = 0; j < period && ok; ++j) {
      const Event& base = ev[i + j];
      const Event& cand = ev[i + reps * period + j];
      ok = sigs[i + j] == sigs[i + reps * period + j] && same_fields(base, cand) &&
           static_cast<std::uint64_t>(cand.time) ==
               static_cast<std::uint64_t>(base.time) + reps * stride;
    }
    if (!ok) break;
    ++reps;
  }
  if (reps < 2) return 0;
  *stride_out = stride;
  return reps;
}

/// A super-record only pays when it replaces at least two plain records.
bool worth_suppressing(std::size_t period, std::uint64_t reps) {
  return reps >= 2 && (reps - 1) * period >= 2;
}

}  // namespace

void put_u32_le(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32_le(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) | static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 | static_cast<std::uint32_t>(in[3]) << 24;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& t = kCrc32.t;
  std::uint32_t c = 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = get_u32_le(data) ^ c;
    const std::uint32_t hi = get_u32_le(data + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void encode_trace_header(std::uint64_t record_count, std::uint8_t* out) {
  std::memcpy(out, kTraceMagic, 4);
  put_u16(out + 4, kTraceVersion);
  put_u16(out + 6, 0);  // records are variable-length
  put_u32_le(out + 8, static_cast<std::uint32_t>(record_count));
  put_u32_le(out + 12, static_cast<std::uint32_t>(record_count >> 32));
}

std::uint64_t decode_trace_header(const std::uint8_t* data, std::size_t size,
                                  const std::string& context) {
  DT_EXPECT(size >= kTraceHeaderBytes, context, ": truncated binary trace header (", size,
            " of ", kTraceHeaderBytes, " bytes)");
  DT_EXPECT(std::memcmp(data, kTraceMagic, 4) == 0, context,
            ": not a binary trace file (bad magic)");
  const std::uint16_t version = get_u16(data + 4);
  DT_EXPECT(version == kTraceVersion, context, ": trace format version ", version,
            " is not supported by this reader (it speaks version ", kTraceVersion,
            "; rewrite the file with a matching dynprof build)");
  const std::uint16_t record_bytes = get_u16(data + 6);
  DT_EXPECT(record_bytes == 0, context, ": unexpected record size ", record_bytes,
            " (records are variable-length; expected 0)");
  return get_u32_le(data + 8) | static_cast<std::uint64_t>(get_u32_le(data + 12)) << 32;
}

void SuppressionTable::note(std::uint64_t signature, std::uint32_t period) {
  if (capacity_ == 0) return;
  const auto it = map_.find(signature);
  if (it != map_.end()) {
    it->second = period;  // refresh in place; insertion order is unchanged
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(fifo_[head_]);
    fifo_[head_] = signature;
    head_ = (head_ + 1) % capacity_;
    ++evictions_;
  } else {
    fifo_.push_back(signature);
  }
  map_.emplace(signature, period);
}

V2EncodeStats encode_v2_blocks(const Event* events, std::size_t count,
                               SuppressionTable* table, std::vector<std::uint8_t>& out) {
  V2EncodeStats stats;
  std::vector<std::uint64_t> sigs;
  BlockDicts dicts;
  std::size_t base = 0;
  while (base < count) {
    const std::size_t n = std::min(kBlockRecords, count - base);
    const Event* block = events + base;

    build_column(block, n, &Event::pid, dicts.pids);
    build_column(block, n, &Event::tid, dicts.tids);
    build_column(block, n, &Event::code, dicts.codes);

    // The payload is written in place after the block header, into room for
    // its worst case, then trimmed to what was written.
    const std::size_t header_at = out.size();
    out.resize(header_at + kBlockHeaderBytes + payload_bound(n, dicts));
    std::uint8_t* const payload = out.data() + header_at + kBlockHeaderBytes;
    std::uint8_t* p = payload;
    p = put_dict(p, dicts.pids.values);
    p = put_dict(p, dicts.tids.values);
    p = put_dict(p, dicts.codes.values);

    sigs.resize(n);
    for (std::size_t i = 0; i < n; ++i) sigs[i] = field_signature(block[i]);

    // One plain item: kind tag, chained time delta, dict indices, aux.
    std::uint64_t prev_time = 0;
    const auto put_plain = [&](std::size_t k) {
      const Event& e = block[k];
      *p++ = static_cast<std::uint8_t>(e.kind);
      const std::uint64_t t = static_cast<std::uint64_t>(e.time);
      p += put_varint(p, zigzag_encode(static_cast<std::int64_t>(t - prev_time)));
      prev_time = t;
      p += put_varint(p, dicts.pids.index[k]);
      p += put_varint(p, dicts.tids.index[k]);
      p += put_varint(p, dicts.codes.index[k]);
      p += put_varint(p, zigzag_encode(e.aux));
    };

    std::size_t i = 0;
    while (i < n) {
      std::size_t period = 0;
      std::uint64_t reps = 0;
      std::uint64_t stride = 0;
      if (table != nullptr) {
        const std::uint32_t hint = table->lookup(sigs[i]);
        if (hint != 0) {
          reps = count_reps(block, sigs.data(), n, i, hint, &stride);
          if (worth_suppressing(hint, reps)) {
            period = hint;
            table->count_hit();
            ++stats.table_hits;
          } else {
            reps = 0;
          }
        }
        if (period == 0) {
          for (std::size_t cand = 1; cand <= kMaxSuppressionPeriod && i + 2 * cand <= n;
               ++cand) {
            // A period whose head record does not recur one period on is
            // hopeless; count_reps would reject it on that first compare.
            if (cand == hint || sigs[i] != sigs[i + cand]) continue;
            reps = count_reps(block, sigs.data(), n, i, cand, &stride);
            if (worth_suppressing(cand, reps)) {
              period = cand;
              break;
            }
            reps = 0;
          }
        }
      }
      if (period != 0) {
        table->note(sigs[i], static_cast<std::uint32_t>(period));
        *p++ = kSuperTag;
        p += put_varint(p, period);
        p += put_varint(p, reps);
        p += put_varint(p, zigzag_encode(static_cast<std::int64_t>(stride)));
        for (std::size_t j = 0; j < period; ++j) put_plain(i + j);
        // The decoder's delta chain resumes after the *last expanded*
        // record, whose time the stride carries implicitly.
        prev_time = static_cast<std::uint64_t>(block[i + period - 1].time) +
                    (reps - 1) * stride;
        ++stats.supers;
        stats.suppressed += (reps - 1) * period;
        i += static_cast<std::size_t>(reps) * period;
      } else {
        put_plain(i);
        ++i;
      }
    }

    const std::size_t payload_len = static_cast<std::size_t>(p - payload);
    DT_EXPECT(payload_len <= kMaxBlockPayloadBytes,
              "v2 block payload overflow: ", payload_len, " bytes from ", n, " records");
    out.resize(header_at + kBlockHeaderBytes + payload_len);
    std::uint8_t* header = out.data() + header_at;
    std::memcpy(header, kBlockMagic, 4);
    put_u32_le(header + 8, static_cast<std::uint32_t>(payload_len));
    put_u32_le(header + 12, static_cast<std::uint32_t>(n));
    put_u32_le(header + 4, crc32(header + 8, 8 + payload_len));

    stats.bytes += kBlockHeaderBytes + payload_len;
    stats.records += n;
    base += n;
  }
  return stats;
}

bool BlockDecoder::reset(const std::uint8_t* block, std::size_t available,
                         std::size_t* block_bytes, std::uint32_t* record_count) {
  failed_ = false;
  pattern_.clear();
  reps_left_ = 0;
  pattern_pos_ = 0;
  rep_offset_ = 0;
  prev_time_ = 0;
  pos_ = end_ = nullptr;
  remaining_ = 0;

  if (available < kBlockHeaderBytes) return false;
  if (std::memcmp(block, kBlockMagic, 4) != 0) return false;
  const std::uint32_t payload_len = get_u32_le(block + 8);
  if (payload_len > kMaxBlockPayloadBytes) return false;
  if (available < kBlockHeaderBytes + payload_len) return false;
  const std::uint32_t count = get_u32_le(block + 12);
  if (count > kBlockRecords || (count == 0) != (payload_len == 0)) return false;
  if (get_u32_le(block + 4) != crc32(block + 8, 8 + payload_len)) return false;

  pos_ = block + kBlockHeaderBytes;
  end_ = pos_ + payload_len;
  remaining_ = count;
  if (count != 0) {
    if (!read_dict(pids_) || !read_dict(tids_) || !read_dict(codes_)) {
      failed_ = true;
      return false;
    }
  }
  *block_bytes = kBlockHeaderBytes + payload_len;
  *record_count = count;
  return true;
}

bool BlockDecoder::read_dict(std::vector<std::int32_t>& dict) {
  dict.clear();
  std::uint64_t n = 0;
  if (!get_varint(&pos_, end_, &n)) return false;
  if (n > kBlockRecords) return false;  // more unique values than records
  if (n == 0) return false;            // a non-empty block uses every dict
  dict.reserve(static_cast<std::size_t>(n));
  std::uint64_t raw = 0;
  if (!get_varint(&pos_, end_, &raw)) return false;
  // Every id column feeds an int32 Event field: a value outside int32 is
  // malformed, never narrowed.
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  std::int64_t value = zigzag_decode(raw);
  if (value < kMin || value > kMax) return false;
  dict.push_back(static_cast<std::int32_t>(value));
  for (std::uint64_t i = 1; i < n; ++i) {
    std::uint64_t delta = 0;
    if (!get_varint(&pos_, end_, &delta)) return false;
    // Strictly ascending, and still inside int32.
    if (delta == 0 || delta > static_cast<std::uint64_t>(kMax - value)) return false;
    value += static_cast<std::int64_t>(delta);
    dict.push_back(static_cast<std::int32_t>(value));
  }
  return true;
}

bool BlockDecoder::decode_plain(std::uint8_t tag, Event& out) {
  if (!valid_event_kind(tag)) return false;
  std::uint64_t raw = 0;
  if (!get_varint(&pos_, end_, &raw)) return false;
  prev_time_ += static_cast<std::uint64_t>(zigzag_decode(raw));
  out.time = static_cast<sim::TimeNs>(prev_time_);
  out.kind = static_cast<EventKind>(tag);
  std::uint64_t idx = 0;
  if (!get_varint(&pos_, end_, &idx) || idx >= pids_.size()) return false;
  out.pid = pids_[static_cast<std::size_t>(idx)];
  if (!get_varint(&pos_, end_, &idx) || idx >= tids_.size()) return false;
  out.tid = tids_[static_cast<std::size_t>(idx)];
  if (!get_varint(&pos_, end_, &idx) || idx >= codes_.size()) return false;
  out.code = codes_[static_cast<std::size_t>(idx)];
  if (!get_varint(&pos_, end_, &raw)) return false;
  out.aux = zigzag_decode(raw);
  return true;
}

bool BlockDecoder::next(Event& out) {
  if (remaining_ == 0) return false;

  if (reps_left_ == 0) {
    // Parse the next item from the payload.
    if (pos_ >= end_) {
      failed_ = true;  // record count promises more than the payload holds
      return false;
    }
    const std::uint8_t tag = *pos_++;
    if ((tag & kSuperTag) == 0) {
      if (!decode_plain(tag, out)) {
        failed_ = true;
        return false;
      }
      --remaining_;
      return true;
    }
    if (tag != kSuperTag) {  // reserved bits set alongside the super bit
      failed_ = true;
      return false;
    }
    std::uint64_t period = 0, reps = 0, raw = 0;
    if (!get_varint(&pos_, end_, &period) || period == 0 ||
        period > kMaxSuppressionPeriod || !get_varint(&pos_, end_, &reps) || reps < 2 ||
        !get_varint(&pos_, end_, &raw)) {
      failed_ = true;
      return false;
    }
    stride_ = static_cast<std::uint64_t>(zigzag_decode(raw));
    pattern_.clear();
    pattern_.reserve(static_cast<std::size_t>(period));
    for (std::uint64_t j = 0; j < period; ++j) {
      if (pos_ >= end_) {
        failed_ = true;
        return false;
      }
      const std::uint8_t inner = *pos_++;
      Event e;
      if ((inner & kSuperTag) != 0 || !decode_plain(inner, e)) {
        failed_ = true;  // supers never nest
        return false;
      }
      pattern_.push_back(e);
    }
    reps_left_ = reps;
    pattern_pos_ = 0;
    rep_offset_ = 0;
  }

  // Emit the next slot of the current repetition.
  const Event& slot = pattern_[pattern_pos_];
  out = slot;
  const std::uint64_t t = static_cast<std::uint64_t>(slot.time) + rep_offset_;
  out.time = static_cast<sim::TimeNs>(t);
  prev_time_ = t;  // the delta chain continues from the last expanded record
  --remaining_;
  if (++pattern_pos_ == pattern_.size()) {
    pattern_pos_ = 0;
    rep_offset_ += stride_;
    if (--reps_left_ == 0) pattern_.clear();
  }
  return true;
}

std::uint32_t BlockDecoder::drain(Event* out, std::uint32_t max) {
  std::uint32_t n = 0;
  while (n < max && next(out[n])) ++n;
  return n;
}

BlockSalvage salvage_v2_scan(const std::string& path) {
  BlockSalvage salvage;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return salvage;
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(file_size > 0 ? static_cast<std::size_t>(file_size) : 0);
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));  // a short read loses the tail
  std::fclose(f);

  BlockDecoder decoder;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::size_t block_bytes = 0;
    std::uint32_t count = 0;
    if (!decoder.reset(bytes.data() + offset, bytes.size() - offset, &block_bytes, &count)) {
      break;  // torn or corrupt: everything from here on is the lost tail
    }
    // Trust the CRC only as far as it decodes: a block that frames clean but
    // does not expand to its promised count is treated as torn too.
    Event e;
    std::uint32_t decoded = 0;
    while (decoder.next(e)) ++decoded;
    if (decoder.failed() || decoded != count) break;
    ++salvage.blocks;
    salvage.records += count;
    offset += block_bytes;
  }
  return salvage;
}

}  // namespace dyntrace::vt
