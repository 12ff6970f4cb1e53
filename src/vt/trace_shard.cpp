#include "vt/trace_shard.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "support/common.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::vt {

namespace {

/// Process-unique spill-file sequence (several stores can live at once, and
/// parallel ctest runs share /tmp -- the OS pid disambiguates those).  Atomic
/// on purpose: names must stay unique across stores on concurrent threads.
std::atomic<std::uint64_t> g_spill_seq{0};

std::string make_run_base(const ShardOptions& options, std::int32_t pid) {
  namespace fs = std::filesystem;
  const fs::path dir =
      options.spill_dir.empty() ? fs::temp_directory_path() : fs::path(options.spill_dir);
  const auto seq = g_spill_seq.fetch_add(1, std::memory_order_relaxed);
  return (dir / str::format("dyntrace-%d-%llu-shard%d", ::getpid(),
                            static_cast<unsigned long long>(seq), pid))
      .string();
}

/// Write `size` bytes to `path` and fsync before closing, so a subsequent
/// rename publishes a fully durable file (the crash-safety contract).
void write_file_durably(const std::string& path, const std::uint8_t* data,
                        std::size_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  DT_EXPECT(fd >= 0, "cannot open shard spill file '", path, "'");
  std::size_t done = 0;
  while (done < size) {
    const ::ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) break;
    done += static_cast<std::size_t>(n);
  }
  const int synced = ::fsync(fd);
  const int closed = ::close(fd);
  DT_EXPECT(done == size && synced == 0 && closed == 0, "I/O error spilling shard to '", path,
            "'");
}

}  // namespace

TraceShard::TraceShard(std::int32_t pid, ShardOptions options)
    : pid_(pid),
      options_(std::move(options)),
      run_base_(make_run_base(options_, pid)),
      suppression_(kSuppressionTableCapacity) {}

TraceShard::~TraceShard() {
  for (const Run& run : runs_) std::remove(run.path.c_str());
}

void TraceShard::push(const Event& event) {
  if (empty()) {
    min_time_ = max_time_ = event.time;
  } else {
    min_time_ = std::min(min_time_, event.time);
    max_time_ = std::max(max_time_, event.time);
  }
  if (tail_sorted_ && !tail_.empty() && EventOrder{}(event, tail_.back())) {
    tail_sorted_ = false;
  }
  tail_.push_back(event);
}

void TraceShard::append(const Event& event) {
  if (torn_) {
    // The writer died mid-spill; whatever it would have logged next is gone.
    ++dropped_records_;
    return;
  }
  push(event);
  if (options_.spill_budget_bytes > 0 &&
      tail_.size() * sizeof(Event) >= options_.spill_budget_bytes) {
    spill();
  }
}

void TraceShard::append_batch(const Event* events, std::size_t count) {
  if (count == 0) return;
  if (torn_) {
    dropped_records_ += count;
    return;
  }
  tail_.reserve(tail_.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    push(events[i]);
    if (options_.spill_budget_bytes > 0 &&
        tail_.size() * sizeof(Event) >= options_.spill_budget_bytes) {
      spill();
      if (torn_) {
        dropped_records_ += count - i - 1;
        return;
      }
    }
  }
}

void TraceShard::sort_tail() const {
  if (tail_sorted_) return;
  std::stable_sort(tail_.begin(), tail_.end(), EventOrder{});
  tail_sorted_ = true;
}

void TraceShard::spill() {
  if (tail_.empty()) return;
  // Each run must be internally sorted for the k-way merge; per-process
  // streams are time-ordered already (the append-time flag skips the sort),
  // but out-of-order appends (clock adjustments, adversarial input) are
  // sorted here.
  sort_tail();
  std::vector<std::uint8_t> bytes;
  const V2EncodeStats enc = encode_v2_blocks(tail_.data(), tail_.size(), &suppression_, bytes);
  const std::uint64_t run_index = runs_.size();
  std::size_t written = bytes.size();
  if (options_.spill_fault) {
    written = std::min(written, options_.spill_fault(pid_, run_index, bytes.size()));
  }
  const std::string final_path =
      run_base_ + str::format(".run%llu", static_cast<unsigned long long>(run_index));
  const std::string tmp_path = final_path + ".tmp";
  write_file_durably(tmp_path, bytes.data(), written);

  telemetry::Registry& reg = telemetry::current();
  const telemetry::Metrics& tm = reg.metrics();
  reg.add(tm.vt_spill_runs);
  reg.add(tm.vt_spill_bytes, written);
  reg.add(tm.vt_spill_records, tail_.size());
  spilled_bytes_ += written;
  suppressed_records_ += enc.suppressed;
  super_records_ += enc.supers;
  reg.add(tm.vt_suppression_hits, enc.suppressed);
  reg.add(tm.vt_suppression_supers, enc.supers);
  const std::uint64_t new_evictions = suppression_.evictions() - noted_evictions_;
  if (new_evictions > 0) reg.add(tm.vt_suppression_evictions, new_evictions);
  noted_evictions_ = suppression_.evictions();
  reg.observe(tm.vt_bytes_per_event, written / tail_.size());
  if (written == bytes.size()) {
    // Atomic publish: the run exists completely or not at all.
    DT_EXPECT(std::rename(tmp_path.c_str(), final_path.c_str()) == 0,
              "cannot publish shard spill run '", final_path, "'");
    runs_.push_back(Run{final_path, tail_.size(), false});
    spilled_records_ += tail_.size();
  } else {
    // Torn mid-write: the rename never happened, so the run is still a
    // `.tmp`.  Salvage every whole block complete and CRC-valid before the
    // tear.
    const std::uint64_t salvaged = salvage_v2_scan(tmp_path).records;
    runs_.push_back(Run{tmp_path, salvaged, true});
    spilled_records_ += salvaged;
    salvaged_records_ += salvaged;
    lost_records_ += tail_.size() - salvaged;
    torn_ = true;
    reg.add(tm.vt_torn_shards);
    reg.add(tm.vt_salvaged_records, salvaged);
    reg.add(tm.vt_lost_records, tail_.size() - salvaged);
  }
  tail_.clear();
}

std::vector<std::unique_ptr<EventCursor>> TraceShard::run_cursors() const {
  std::vector<std::unique_ptr<EventCursor>> cursors;
  cursors.reserve(runs_.size() + 1);
  for (const Run& run : runs_) {
    if (run.count == 0) continue;
    cursors.push_back(std::make_unique<BlockRunCursor>(run.path, 0, run.count));
  }
  if (!tail_.empty()) {
    sort_tail();
    cursors.push_back(std::make_unique<SpanCursor>(tail_.data(), tail_.size()));
  }
  return cursors;
}

std::unique_ptr<EventCursor> TraceShard::cursor() const { return merge_runs(run_cursors()); }

}  // namespace dyntrace::vt
