// The block trace encoding on the smg98 Full cell (DESIGN.md §6).
//
// One simulated smg98 Full run supplies the event stream; the bench then
// replays it through the spill path and measures what the encoding claims:
// bytes/event (varint deltas + dictionaries + redundancy suppression; the
// retired fixed-record encoding spent 36), encode ns/event, and k-way merge
// throughput reading the spilled runs back.  Emits BENCH_trace.json.  Shape
// checks: at most 9.00 bytes/event (a quarter of 36), the spilled store
// merges to the in-memory digest, and a spilled Full policy run matches the
// unspilled run's trace and statistics digests and app time.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dynprof/policy.hpp"
#include "vt/trace_codec_v2.hpp"
#include "vt/trace_store.hpp"

namespace {

using namespace dyntrace;

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

struct BestOf {
  double best_s = 1e30;
  void add(double s) { best_s = s < best_s ? s : best_s; }
};

struct CodecNumbers {
  double bytes_per_event = 0;
  double encode_ns_per_event = 0;
  double merge_events_per_s = 0;
  double merge_mb_per_s = 0;
  std::uint64_t digest = 0;
  vt::TraceStore::VolumeStats volume;
};

/// Replay the cell's events through per-pid shards with a small spill
/// budget, so the merge below reads encoded runs back from disk.
vt::TraceStore build_spilled_store(const std::vector<vt::Event>& events) {
  vt::TraceStore::Options options;
  options.spill_budget_bytes = std::size_t{1} << 12;  // 128-event runs
  vt::TraceStore store(options);
  for (const auto& e : events) store.append(e);
  return store;
}

CodecNumbers measure(const std::vector<vt::Event>& events, int reps) {
  CodecNumbers out;

  // --- encode ns/event (the spill-time cost) -------------------------------
  BestOf encode;
  for (int rep = 0; rep < reps; ++rep) {
    const auto begin = std::chrono::steady_clock::now();
    vt::SuppressionTable table(vt::kSuppressionTableCapacity);
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < events.size(); i += vt::kBlockRecords) {
      const std::size_t n = std::min(vt::kBlockRecords, events.size() - i);
      vt::encode_v2_blocks(events.data() + i, n, &table, bytes);
    }
    encode.add(seconds_since(begin));
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  out.encode_ns_per_event = encode.best_s * 1e9 / static_cast<double>(events.size());

  // --- bytes/event and merge throughput through the real shard path -------
  const vt::TraceStore store = build_spilled_store(events);
  out.volume = store.volume_stats();
  out.bytes_per_event = out.volume.bytes_per_event();
  out.digest = store.digest();

  BestOf merge;
  for (int rep = 0; rep < reps; ++rep) {
    // Cursor construction (one open(2) per run, slow and noisy on overlay
    // filesystems) stays outside the timed window: the figure is decode +
    // merge throughput.
    auto cursor = store.merge_cursor();
    const auto begin = std::chrono::steady_clock::now();
    vt::Event e;
    std::uint64_t drained = 0;
    while (cursor->next(e)) ++drained;
    merge.add(seconds_since(begin));
    if (drained != events.size()) {
      std::fprintf(stderr, "merge drained %llu of %zu events\n",
                   static_cast<unsigned long long>(drained), events.size());
      std::exit(1);
    }
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  out.merge_events_per_s = static_cast<double>(events.size()) / merge.best_s;
  out.merge_mb_per_s =
      static_cast<double>(out.volume.spilled_bytes) / merge.best_s / (1024.0 * 1024.0);
  return out;
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  double scale = 0.15;
  int nprocs = 32;
  int reps = 5;
  std::string json_path = "BENCH_trace.json";
  CliParser parser("micro_trace_v2",
                   "The block trace encoding on the smg98 Full cell (BENCH_trace.json)");
  parser.option_double("scale", "problem scale factor (default 0.15)", &scale);
  parser.option_int("nprocs", "smg98 rank count (default 32)", &nprocs);
  parser.option_int("reps", "reps per measurement, best-of (default 5)", &reps);
  parser.option_string("json", "output artifact (default BENCH_trace.json)", &json_path);
  if (!parser.parse(argc, argv)) return 0;
  if (reps < 1 || nprocs < 1) {
    std::fprintf(stderr, "micro_trace_v2: --reps and --nprocs must be >= 1\n");
    return 1;
  }

  // --- the event stream: one smg98 Full cell, kept in memory ---------------
  std::fprintf(stderr, "simulating smg98 Full/%d at scale %.2f...\n", nprocs, scale);
  dynprof::Launch::Options lopt;
  lopt.app = &asci::smg98();
  lopt.params.nprocs = nprocs;
  lopt.params.problem_scale = scale;
  lopt.policy = dynprof::Policy::kFull;
  dynprof::Launch launch(std::move(lopt));
  launch.run_to_completion();
  const std::vector<vt::Event> events = launch.trace()->merged();
  const std::uint64_t memory_digest = launch.trace()->digest();
  std::fprintf(stderr, "%zu events\n", events.size());

  const CodecNumbers v2 = measure(events, reps);
  std::fprintf(stderr, "\n");

  TextTable table({"Encoding", "Bytes/event", "Encode ns/event", "Merge Mevents/s",
                   "Merge MB/s"});
  table.add_row({"delta blocks", TextTable::num(v2.bytes_per_event, 2),
                 TextTable::num(v2.encode_ns_per_event, 1),
                 TextTable::num(v2.merge_events_per_s / 1e6, 2),
                 TextTable::num(v2.merge_mb_per_s, 1)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("suppression: %llu of %llu spilled record(s) folded into %llu super-record(s), "
              "%llu table eviction(s)\n",
              static_cast<unsigned long long>(v2.volume.suppressed_records),
              static_cast<unsigned long long>(v2.volume.spilled_records),
              static_cast<unsigned long long>(v2.volume.super_records),
              static_cast<unsigned long long>(v2.volume.table_evictions));

  // --- fig7a statistics bit-identity, spilled vs in memory -----------------
  std::fprintf(stderr, "policy runs for the statistics digest gate...\n");
  const auto policy_cell = [&](std::size_t spill_bytes) {
    dynprof::Launch::Options options;
    options.app = &asci::smg98();
    options.policy = dynprof::Policy::kFull;
    options.params.nprocs = nprocs;
    options.params.problem_scale = scale;
    options.trace_spill_bytes = spill_bytes;
    return dynprof::run_policy(std::move(options));
  };
  const dynprof::PolicyResult in_memory = policy_cell(0);
  const dynprof::PolicyResult spilled = policy_cell(std::size_t{1} << 14);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"cell\": {\"app\": \"smg98\", \"policy\": \"Full\", \"nprocs\": %d, "
      "\"scale\": %.3f, \"events\": %zu},\n"
      "  \"v2\": {\"bytes_per_event\": %.3f, \"encode_ns_per_event\": %.2f, "
      "\"merge_events_per_s\": %.0f, \"merge_mb_per_s\": %.2f,\n"
      "          \"suppressed_records\": %llu, \"super_records\": %llu, "
      "\"table_evictions\": %llu},\n"
      "  \"digests_identical\": %s\n"
      "}\n",
      nprocs, scale, events.size(), v2.bytes_per_event, v2.encode_ns_per_event,
      v2.merge_events_per_s, v2.merge_mb_per_s,
      static_cast<unsigned long long>(v2.volume.suppressed_records),
      static_cast<unsigned long long>(v2.volume.super_records),
      static_cast<unsigned long long>(v2.volume.table_evictions),
      v2.digest == memory_digest ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  checks.push_back({"<= 9.00 bytes/event, a quarter of the retired 36-byte frames "
                    "(smg98 Full)",
                    v2.bytes_per_event <= 9.0});
  checks.push_back({"the spilled store merges to the in-memory digest",
                    v2.digest == memory_digest});
  checks.push_back({"a spilled fig7a Full run matches the in-memory run's trace and "
                    "statistics digests and app time",
                    spilled.trace_digest == in_memory.trace_digest &&
                        spilled.stats_digest == in_memory.stats_digest &&
                        spilled.app_seconds == in_memory.app_seconds});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
