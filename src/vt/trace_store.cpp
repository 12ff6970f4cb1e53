#include "vt/trace_store.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "support/common.hpp"
#include "support/strings.hpp"
#include "vt/trace_codec_v2.hpp"

namespace dyntrace::vt {

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kEnter: return "enter";
    case EventKind::kLeave: return "leave";
    case EventKind::kMpiBegin: return "mpi_begin";
    case EventKind::kMpiEnd: return "mpi_end";
    case EventKind::kMsgSend: return "msg_send";
    case EventKind::kMsgRecv: return "msg_recv";
    case EventKind::kParallelBegin: return "par_begin";
    case EventKind::kParallelEnd: return "par_end";
    case EventKind::kWorkerBegin: return "worker_begin";
    case EventKind::kWorkerEnd: return "worker_end";
    case EventKind::kMarker: return "marker";
  }
  return "?";
}

namespace {

EventKind kind_from_string(std::string_view s) {
  for (int k = 0; k <= static_cast<int>(EventKind::kMarker); ++k) {
    if (to_string(static_cast<EventKind>(k)) == s) return static_cast<EventKind>(k);
  }
  fail("unknown event kind '", std::string(s), "'");
}

}  // namespace

TraceShard& TraceStore::shard(std::int32_t pid) {
  // Analysis indexes per-process tables by pid.
  DT_EXPECT(pid >= 0, "trace event with negative pid ", pid);
  auto& slot = shards_[pid];
  if (!slot) slot = std::make_unique<TraceShard>(pid, options_);
  return *slot;
}

std::size_t TraceStore::size() const {
  std::size_t total = 0;
  for (const auto& [pid, shard] : shards_) total += shard->size();
  return total;
}

std::vector<std::int32_t> TraceStore::pids() const {
  std::vector<std::int32_t> out;
  out.reserve(shards_.size());
  for (const auto& [pid, shard] : shards_) {
    if (!shard->empty()) out.push_back(pid);
  }
  return out;
}

bool TraceStore::time_bounds(sim::TimeNs* lo, sim::TimeNs* hi) const {
  bool any = false;
  sim::TimeNs min_t = 0, max_t = 0;
  for (const auto& [pid, shard] : shards_) {
    if (shard->empty()) continue;
    if (!any || shard->min_time() < min_t) min_t = shard->min_time();
    if (!any || shard->max_time() > max_t) max_t = shard->max_time();
    any = true;
  }
  if (!any) return false;
  if (lo != nullptr) *lo = min_t;
  if (hi != nullptr) *hi = max_t;
  return true;
}

std::unique_ptr<EventCursor> TraceStore::merge_cursor() const {
  std::vector<std::unique_ptr<EventCursor>> runs;
  // Shards in pid order, runs in spill order: equal-key ties in the merge
  // then resolve to the earlier-appended run (append-stable, like the
  // stable_sort the monolithic store used).
  for (const auto& [pid, shard] : shards_) {
    for (auto& cursor : shard->run_cursors()) runs.push_back(std::move(cursor));
  }
  return merge_runs(std::move(runs));
}

std::unique_ptr<EventCursor> TraceStore::process_cursor(std::int32_t pid) const {
  const auto it = shards_.find(pid);
  if (it == shards_.end()) return std::make_unique<SpanCursor>(nullptr, 0);
  return it->second->cursor();
}

std::vector<Event> TraceStore::merged() const {
  auto cursor = merge_cursor();
  return collect(*cursor);
}

std::uint64_t TraceStore::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  auto cursor = merge_cursor();
  Event e;
  while (cursor->next(e)) {
    mix(static_cast<std::uint64_t>(e.time));
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.pid)) << 32) |
        static_cast<std::uint32_t>(e.tid));
    mix((static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.kind)) << 32) |
        static_cast<std::uint32_t>(e.code));
    mix(static_cast<std::uint64_t>(e.aux));
  }
  return h;
}

TraceStore::SalvageStats TraceStore::salvage_stats() const {
  SalvageStats stats;
  for (const auto& [pid, shard] : shards_) {
    if (shard->torn()) ++stats.torn_shards;
    stats.salvaged_records += shard->salvaged_records();
    stats.lost_records += shard->lost_records();
  }
  return stats;
}

TraceStore::VolumeStats TraceStore::volume_stats() const {
  VolumeStats stats;
  for (const auto& [pid, shard] : shards_) {
    stats.spilled_bytes += shard->spilled_bytes();
    stats.spilled_records += shard->spilled_records();
    stats.suppressed_records += shard->suppressed_records();
    stats.super_records += shard->super_records();
    stats.table_evictions += shard->suppression_table().evictions();
  }
  return stats;
}

std::vector<Event> TraceStore::for_process(std::int32_t pid) const {
  auto cursor = process_cursor(pid);
  return collect(*cursor);
}

std::vector<Event> TraceStore::events() const {
  std::vector<Event> out;
  out.reserve(size());
  for (const std::int32_t pid : pids()) {
    auto cursor = process_cursor(pid);
    Event e;
    while (cursor->next(e)) out.push_back(e);
  }
  return out;
}

void TraceStore::write(const std::string& path) const {
  std::ofstream out(path);
  DT_EXPECT(out.good(), "cannot open trace file '", path, "' for writing");
  out << "# dyntrace trace v1: time_ns pid tid kind code aux\n";
  auto cursor = merge_cursor();
  Event e;
  while (cursor->next(e)) {
    out << e.time << '\t' << e.pid << '\t' << e.tid << '\t' << to_string(e.kind) << '\t'
        << e.code << '\t' << e.aux << '\n';
  }
  DT_EXPECT(out.good(), "I/O error writing trace file '", path, "'");
}

void TraceStore::write_binary(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  DT_EXPECT(out.good(), "cannot open trace file '", path, "' for writing");
  std::uint8_t header[kTraceHeaderBytes];
  encode_trace_header(size(), header);
  out.write(reinterpret_cast<const char*>(header), sizeof(header));

  // Buffer whole blocks of merged events and encode them with the same
  // suppression codec the spill path uses (one table for the file).
  auto cursor = merge_cursor();
  Event e;
  SuppressionTable table(kSuppressionTableCapacity);
  std::vector<Event> batch;
  batch.reserve(kBlockRecords);
  std::vector<std::uint8_t> encoded;
  const auto flush = [&] {
    encoded.clear();
    encode_v2_blocks(batch.data(), batch.size(), &table, encoded);
    out.write(reinterpret_cast<const char*>(encoded.data()),
              static_cast<std::streamsize>(encoded.size()));
    batch.clear();
  };
  while (cursor->next(e)) {
    batch.push_back(e);
    if (batch.size() == kBlockRecords) flush();
  }
  if (!batch.empty()) flush();
  DT_EXPECT(out.good(), "I/O error writing trace file '", path, "'");
}

std::unique_ptr<EventCursor> TraceStore::open_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DT_EXPECT(in.good(), "cannot open trace file '", path, "'");
  std::uint8_t header[kTraceHeaderBytes];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  const std::uint64_t count =
      decode_trace_header(header, static_cast<std::size_t>(in.gcount()), path);
  return std::make_unique<BlockRunCursor>(path, kTraceHeaderBytes, count,
                                          /*whole_file=*/true);
}

TraceStore TraceStore::read(const std::string& path) {
  {
    std::ifstream probe(path, std::ios::binary);
    DT_EXPECT(probe.good(), "cannot open trace file '", path, "'");
    std::uint8_t magic[4] = {0, 0, 0, 0};
    probe.read(reinterpret_cast<char*>(magic), sizeof(magic));
    if (probe.gcount() == 4 && magic[0] == kTraceMagic[0] && magic[1] == kTraceMagic[1] &&
        magic[2] == kTraceMagic[2] && magic[3] == kTraceMagic[3]) {
      TraceStore store;
      auto cursor = open_binary(path);
      Event e;
      for (std::uint64_t record = 0; cursor->next(e); ++record) {
        DT_EXPECT(e.pid >= 0, path, ": record ", record, " has negative pid ", e.pid);
        store.append(e);
      }
      return store;
    }
  }

  std::ifstream in(path);
  DT_EXPECT(in.good(), "cannot open trace file '", path, "'");
  TraceStore store;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto trimmed = str::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto fields = str::split(std::string(trimmed), '\t');
    DT_EXPECT(fields.size() == 6, path, ":", line_no, ": expected 6 fields, got ",
              fields.size());
    Event e;
    const auto time = str::parse_i64(fields[0]);
    const auto pid = str::parse_i64(fields[1]);
    const auto tid = str::parse_i64(fields[2]);
    const auto code = str::parse_i64(fields[4]);
    const auto aux = str::parse_i64(fields[5]);
    DT_EXPECT(time && pid && tid && code && aux, path, ":", line_no, ": bad numeric field");
    // Ids index analysis tables: a negative pid or a value past int32 would
    // index them out of bounds after narrowing, so it fails here instead.
    constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
    DT_EXPECT(*pid >= 0 && *pid <= kMax, path, ":", line_no, ": pid ", *pid,
              " out of range [0, ", kMax, "]");
    DT_EXPECT(*tid >= kMin && *tid <= kMax, path, ":", line_no, ": tid ", *tid,
              " does not fit in 32 bits");
    DT_EXPECT(*code >= kMin && *code <= kMax, path, ":", line_no, ": code ", *code,
              " does not fit in 32 bits");
    e.time = *time;
    e.pid = static_cast<std::int32_t>(*pid);
    e.tid = static_cast<std::int32_t>(*tid);
    try {
      e.kind = kind_from_string(fields[3]);
    } catch (const Error&) {
      fail(path, ":", line_no, ": unknown event kind '", fields[3], "'");
    }
    e.code = static_cast<std::int32_t>(*code);
    e.aux = *aux;
    store.append(e);
  }
  return store;
}

}  // namespace dyntrace::vt
