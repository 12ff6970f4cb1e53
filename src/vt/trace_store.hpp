// The trace "file": collected event streams of one job.
//
// Per the paper's model, data is buffered per process at run time and
// dumped for postmortem inspection.  TraceStore is the dump target shared
// by all VtLib instances of a job, but it is *sharded*: each process
// appends to its own TraceShard (no shared vector on the append path),
// shards spill sorted binary runs to disk past a configurable byte budget,
// and every reader streams events instead of materializing the job's full
// event vector: through a k-way merge over the sorted runs when it needs
// global time order, or per process (src/analysis) when it does not.  Like
// the rest of a run, a store lives on the run's thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vt/event.hpp"
#include "vt/trace_reader.hpp"
#include "vt/trace_shard.hpp"

namespace dyntrace::vt {

class TraceStore {
 public:
  /// Per-shard spill policy (spill_budget_bytes = 0 keeps shards fully in
  /// memory, the right default for the small simulated jobs in tests).
  using Options = ShardOptions;

  TraceStore() = default;
  explicit TraceStore(Options options) : options_(std::move(options)) {}
  TraceStore(TraceStore&&) = default;
  TraceStore& operator=(TraceStore&&) = default;

  /// The per-process shard, created on first use.  Writers (VtLib) cache
  /// the returned reference so their flush path skips the pid lookup;
  /// shard references stay valid for the store's lifetime.  A negative pid
  /// throws: analysis indexes per-process tables by pid.
  TraceShard& shard(std::int32_t pid);

  /// Append a flushed event (routed to its process's shard).
  void append(const Event& event) { shard(event.pid).append(event); }

  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Process ids with a shard, ascending.
  std::vector<std::int32_t> pids() const;

  /// Earliest and latest event timestamp across all shards (O(shards),
  /// no event scan); returns false when the store is empty.
  bool time_bounds(sim::TimeNs* lo, sim::TimeNs* hi) const;

  /// Stream of all events in (time, pid, tid) order; memory is O(runs),
  /// independent of trace size.  Like every cursor here it reads in-memory
  /// tails in place: an append invalidates it (read after the run ends).
  std::unique_ptr<EventCursor> merge_cursor() const;

  /// Stream of one process's events in time order (empty cursor for an
  /// unknown pid): the events, in the relative order, that merge_cursor()
  /// yields for that pid, with no merge when the shard is one run.
  std::unique_ptr<EventCursor> process_cursor(std::int32_t pid) const;

  /// Events sorted by (time, pid, tid), materialized -- tests and small
  /// traces only; analysis streams through merge_cursor() instead.
  std::vector<Event> merged() const;

  /// FNV-1a fingerprint over every field of every record in merged order,
  /// streamed through the k-way merge.  Two stores digest equal iff their
  /// merged traces are bit-identical -- the cheap whole-trace identity
  /// check the parallel-engine determinism tests rest on.
  std::uint64_t digest() const;

  /// Aggregate crash-recovery outcome across shards (all zero for a
  /// healthy run; see TraceShard for the torn-run salvage model).
  struct SalvageStats {
    std::uint64_t torn_shards = 0;      ///< shards whose writer died mid-spill
    std::uint64_t salvaged_records = 0; ///< records recovered from torn runs
    std::uint64_t lost_records = 0;     ///< records torn away or dropped after
  };
  SalvageStats salvage_stats() const;

  /// Aggregate trace-volume outcome across shards: encoded spill bytes and
  /// the suppression counters behind the bytes/event figure (analysis
  /// reports these; the bench gates on them).
  struct VolumeStats {
    std::uint64_t spilled_bytes = 0;       ///< encoded bytes written across runs
    std::uint64_t spilled_records = 0;     ///< records those bytes cover
    std::uint64_t suppressed_records = 0;  ///< records folded into super-records
    std::uint64_t super_records = 0;       ///< super-records emitted
    std::uint64_t table_evictions = 0;     ///< suppression-table FIFO evictions
    /// Encoded bytes per spilled record; 0 when nothing spilled.
    double bytes_per_event() const {
      return spilled_records == 0 ? 0.0
                                  : static_cast<double>(spilled_bytes) /
                                        static_cast<double>(spilled_records);
    }
  };
  VolumeStats volume_stats() const;

  /// Serialize to a tab-separated text file (streamed, human-readable; no
  /// reader parses it back); throws dyntrace::Error on I/O failure.
  void write(const std::string& path) const;

  /// Serialize to the compact binary format (trace_codec_v2.hpp): delta
  /// blocks with suppression, streamed through the merge so the trace is
  /// never fully resident.
  void write_binary(const std::string& path) const;

  /// Stream the records of a binary trace file without loading it.  The
  /// header is validated up front, blocks lazily; a negative pid throws,
  /// and a payload that holds more than the declared record count throws
  /// at end of stream.
  static std::unique_ptr<EventCursor> open_binary(const std::string& path);

 private:
  Options options_;
  std::map<std::int32_t, std::unique_ptr<TraceShard>> shards_;
};

}  // namespace dyntrace::vt
