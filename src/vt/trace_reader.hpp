// Streaming event cursors: pull-based readers over sorted event runs and
// the k-way merge that combines them.
//
// Analysis never materializes a job's full merged event vector; it pulls
// events one at a time from a MergeCursor whose memory footprint is
// O(number of runs), independent of trace size (spilled runs stream from
// disk through a fixed-size chunk buffer).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "vt/event.hpp"
#include "vt/trace_codec_v2.hpp"

namespace dyntrace::vt {

/// Pull-based stream of events.  next() fills `out` and returns true, or
/// returns false once the stream is exhausted.
class EventCursor {
 public:
  virtual ~EventCursor() = default;
  virtual bool next(Event& out) = 0;
};

/// Non-owning cursor over `count` events at `events` (callers pass them
/// already sorted when the cursor feeds a merge).  The events must outlive
/// the cursor and stay in place while it reads: a shard's tail cursor is
/// invalidated by the next append to that shard (DESIGN.md §6).
class SpanCursor final : public EventCursor {
 public:
  SpanCursor(const Event* events, std::size_t count) : pos_(events), end_(events + count) {}
  bool next(Event& out) override {
    if (pos_ == end_) return false;
    out = *pos_++;
    return true;
  }

 private:
  const Event* pos_;
  const Event* end_;
};

/// Cursor over `count` records encoded as blocks starting at byte `offset`
/// of a file (a spill run, or a trace file past its header).  Blocks stream
/// one at a time; each block is drained into a chunk buffer in a single
/// decode pass, so resident memory is one block's expanded records (at most
/// kBlockRecords) -- never the run's total record count.  Strict: throws
/// dyntrace::Error on a torn, CRC-corrupt, or malformed block -- callers
/// bound `count` by salvage_v2_scan() when the run may be torn.  With
/// `whole_file`, the `count` records must also end exactly at the end of the
/// last block and of the file; anything left over throws at end of stream.
class BlockRunCursor final : public EventCursor {
 public:
  BlockRunCursor(const std::string& path, std::uint64_t offset, std::uint64_t count,
                 bool whole_file = false);
  bool next(Event& out) override;

 private:
  void open_next_block();
  void check_whole_file();

  std::string path_;
  std::ifstream in_;
  std::uint64_t remaining_;
  std::uint64_t declared_;
  bool whole_file_;
  std::vector<std::uint8_t> block_;
  BlockDecoder decoder_;
  std::vector<Event> chunk_;
  std::size_t chunk_pos_ = 0;
};

/// K-way merge over sorted child cursors via a min-heap keyed by EventOrder.
/// Ties resolve to the lower child index, so runs split from one append
/// stream (earlier run = lower index) merge append-stably, and the merged
/// order is deterministic for a given set of inputs.
class MergeCursor final : public EventCursor {
 public:
  explicit MergeCursor(std::vector<std::unique_ptr<EventCursor>> inputs);
  bool next(Event& out) override;

 private:
  /// True when slot a's head event sorts after slot b's (ties to the higher
  /// slot index, so the lower index wins) -- a strict total order, which
  /// makes the merged sequence independent of heap mechanics.
  bool after(std::uint32_t a, std::uint32_t b) const;

  /// Restore the heap property after the head event of slot heap_[0]
  /// changed (replace-top sift: one root-to-leaf pass instead of pop_heap +
  /// push_heap's two).  The heap holds 4-byte slot indices -- events stay in
  /// their slots -- so a sift moves indices, not 32-byte records.
  void sift_down();

  std::vector<std::unique_ptr<EventCursor>> inputs_;
  std::vector<Event> slots_;           ///< current head event per live input
  std::vector<std::uint32_t> heap_;    ///< min-heap of slot indices
};

/// One cursor over sorted runs: the run itself when there is exactly one
/// (no merge around it), else a MergeCursor over all of them.
std::unique_ptr<EventCursor> merge_runs(std::vector<std::unique_ptr<EventCursor>> runs);

/// Drain a cursor into a vector (tests and small traces only).
std::vector<Event> collect(EventCursor& cursor);

}  // namespace dyntrace::vt
