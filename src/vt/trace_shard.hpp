// One process's slice of the job trace.
//
// Per the paper's scaling argument, trace data must stay process-local at
// collection time: each VtLib appends to its own shard (no shared vector,
// no lock on the append path -- exactly one writer per shard), and a shard
// past its byte budget sorts its open tail and spills it to disk as one
// sorted run of varint delta blocks with per-block dictionaries and
// redundancy suppression (trace_codec_v2.hpp).  Readers see the shard as a
// set of sorted runs merged on the fly (trace_reader.hpp).
//
// Crash safety: every run is its own file, written to `<run>.tmp`, fsynced,
// and renamed into place -- a run either exists completely or (if the
// writer died mid-spill) is left as a torn `.tmp`.  A torn run is salvaged
// at the CRC granule, the block: every block complete and CRC-valid before
// the tear is recovered; the corrupt tail is skipped and counted
// (lost_records()).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "vt/event.hpp"
#include "vt/trace_codec_v2.hpp"
#include "vt/trace_reader.hpp"

namespace dyntrace::vt {

struct ShardOptions {
  /// In-memory byte budget per shard; once the open tail exceeds it, the
  /// tail is sorted and spilled to disk as one run.  0 = never spill.
  std::size_t spill_budget_bytes = 0;
  /// Directory for spill files; empty = the system temp directory.
  std::string spill_dir;
  /// Fault hook: called with (pid, run_index, intended_bytes) before a run
  /// is written and returns how many bytes actually reach the disk.  A
  /// short return models the writer dying mid-spill: the run stays a torn
  /// `.tmp` and the shard stops collecting.  Null (the default) = healthy.
  std::function<std::size_t(std::int32_t, std::uint64_t, std::size_t)> spill_fault;
};

class TraceShard {
 public:
  TraceShard(std::int32_t pid, ShardOptions options);
  ~TraceShard();
  TraceShard(const TraceShard&) = delete;
  TraceShard& operator=(const TraceShard&) = delete;

  void append(const Event& event);
  /// Append a flushed batch in order (the VtLib flush path).
  void append_batch(const Event* events, std::size_t count);

  std::int32_t pid() const { return pid_; }
  std::size_t size() const { return static_cast<std::size_t>(spilled_records_) + tail_.size(); }
  bool empty() const { return size() == 0; }
  std::size_t spill_runs() const { return runs_.size(); }
  /// Bytes actually written to disk across all spill runs (encoded size,
  /// torn tails included) -- the numerator of bytes/event.
  std::uint64_t spilled_bytes() const { return spilled_bytes_; }
  /// Records covered by spill runs (the bytes/event denominator).
  std::uint64_t spilled_records() const { return spilled_records_; }

  /// Records folded into super-records beyond the stored pattern.
  std::uint64_t suppressed_records() const { return suppressed_records_; }
  /// Super-records emitted across all spills.
  std::uint64_t super_records() const { return super_records_; }
  /// The shard's pattern memo (hit/eviction counters, bounded by
  /// kSuppressionTableCapacity).
  const SuppressionTable& suppression_table() const { return suppression_; }

  /// True once a spill was torn mid-write; the shard then drops further
  /// appends (the writer is gone) and exposes what was recovered.
  bool torn() const { return torn_; }
  /// Records recovered from torn runs (complete, CRC-valid blocks).
  std::uint64_t salvaged_records() const { return salvaged_records_; }
  /// Records lost to tears: torn away mid-write plus dropped afterwards.
  std::uint64_t lost_records() const { return lost_records_ + dropped_records_; }

  /// Timestamp bounds over every appended event; meaningless when empty().
  sim::TimeNs min_time() const { return min_time_; }
  sim::TimeNs max_time() const { return max_time_; }

  /// Sorted-run cursors covering the whole shard: spilled runs in spill
  /// order, then the open tail.  An out-of-order tail is stable-sorted in
  /// place once, on the first read after it lost its order; the tail cursor
  /// then reads it where it lies, so it is invalidated by the next append
  /// to this shard.  Feed these to merge_runs().
  std::vector<std::unique_ptr<EventCursor>> run_cursors() const;

  /// Time-ordered view of this shard alone (its one run, or their merge).
  std::unique_ptr<EventCursor> cursor() const;

 private:
  struct Run {
    std::string path;          ///< run file (a torn run keeps its .tmp path)
    std::uint64_t count = 0;   ///< readable records (salvaged count if torn)
    bool torn = false;
  };

  void push(const Event& event);
  /// Restore EventOrder on the tail (a stable sort, so sorting early never
  /// changes what a later spill or read sees).
  void sort_tail() const;
  void spill();

  std::int32_t pid_;
  ShardOptions options_;
  std::string run_base_;
  SuppressionTable suppression_;
  /// The open tail.  Mutable because a read sorts it in place; readers run
  /// after the writer (DESIGN.md §6), so this never races an append.
  mutable std::vector<Event> tail_;
  mutable bool tail_sorted_ = true;  ///< tail_ is in EventOrder
  std::vector<Run> runs_;
  std::uint64_t spilled_records_ = 0;
  std::uint64_t spilled_bytes_ = 0;
  std::uint64_t suppressed_records_ = 0;
  std::uint64_t super_records_ = 0;
  std::uint64_t noted_evictions_ = 0;  ///< evictions already reported to telemetry
  std::uint64_t salvaged_records_ = 0;
  std::uint64_t lost_records_ = 0;
  std::uint64_t dropped_records_ = 0;
  bool torn_ = false;
  sim::TimeNs min_time_ = 0;
  sim::TimeNs max_time_ = 0;
};

}  // namespace dyntrace::vt
