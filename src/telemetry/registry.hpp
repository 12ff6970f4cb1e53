// Self-telemetry: the metrics registry (DESIGN.md §12).
//
// dynprof's whole argument is about bounding the cost of observation, so the
// stack needs cheap, always-available counters about *itself*: how many
// events the engine ran, how often the controller staged changes,
// how many spill runs the trace store wrote, how many retries the dpcl layer
// burned.  The registry provides three level-gated primitives:
//
//   * monotonic counters     -- u64, add-only;
//   * gauges                 -- i64 last-value;
//   * log2 histograms        -- 65 fixed buckets (bucket 0 holds zeros,
//                               bucket b holds 2^(b-1) <= v < 2^b) plus a sum
//                               cell, so observe() is a bit_width and two
//                               increments, never a search.
//
// A run and everything it owns live on one thread (DESIGN.md §12), so a
// registry is a plain single-writer structure: cells are one vector of u64
// grown at registration, an update is an inline add on one cell, and spans
// append to one vector.  All of it is gated behind the registry level
// (off | counters | spans); at `off` every operation is one load and a
// predictable branch, which is what lets the hooks live permanently inside
// the sim/control/vt/dpcl/fault layers (micro_telemetry_overhead holds the
// counters level under 1% on a full fig7a cell).
//
// Span tracing (span.hpp's ScopedSpan rides on the calls here) records
// begin/end/instant events in the *simulated* clock domain and exports
// Chrome trace-event JSON loadable in Perfetto; see DESIGN.md §12 for the
// clock-domain and ordering semantics.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace dyntrace::telemetry {

enum class Level : int { kOff = 0, kCounters = 1, kSpans = 2 };

const char* to_string(Level level);
/// Parse "off" | "counters" | "spans"; throws dyntrace::Error otherwise.
Level level_from_string(const std::string& name);
/// The compile-time default (-DDYNTRACE_TELEMETRY_DEFAULT_LEVEL=0|1|2,
/// off when the definition is absent).
Level default_level();

/// Typed metric handles: indices into the registry's cell space.  Cheap to
/// copy; valid for the registry that issued them only.
struct CounterId {
  std::uint32_t cell = 0;
};
struct GaugeId {
  std::uint32_t cell = 0;
};
struct HistogramId {
  std::uint32_t first_cell = 0;
};
struct SpanName {
  std::uint32_t id = 0;
};

/// Log2 histogram shape: bucket 0 counts zeros, bucket b >= 1 counts values
/// with bit_width == b (i.e. 2^(b-1) <= v < 2^b); one extra cell holds the
/// running sum.
inline constexpr std::uint32_t kHistogramBuckets = 65;
inline std::uint32_t histogram_bucket(std::uint64_t value) {
  return static_cast<std::uint32_t>(std::bit_width(value));
}
std::uint64_t histogram_bucket_lower(std::uint32_t bucket);

struct Metrics;
class KeyedCounter;

class Registry {
 public:
  explicit Registry(Level level = default_level());
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Level level() const { return level_; }
  void set_level(Level level) { level_ = level; }
  bool counting() const { return level_ >= Level::kCounters; }
  bool spans_enabled() const { return level_ >= Level::kSpans; }

  /// The pre-registered cross-layer metric catalog (metrics.hpp).
  const Metrics& metrics() const { return *metrics_; }

  // --- registration (cold path; idempotent by name, kind mismatch throws) ---

  CounterId counter(const std::string& name);
  GaugeId gauge(const std::string& name);
  HistogramId histogram(const std::string& name);
  SpanName span_name(const std::string& name);
  /// Attach a human-readable name to a span track (shown as the thread name
  /// in Perfetto).  Idempotent; later calls win.
  void name_track(std::uint32_t track, const std::string& name);

  // --- hot operations (no-ops below the gating level) -----------------------

  void add(CounterId id, std::uint64_t delta = 1) {
    if (counting()) cells_[id.cell] += delta;
  }
  void set(GaugeId id, std::int64_t value) {
    if (counting()) cells_[id.cell] = static_cast<std::uint64_t>(value);
  }
  void gauge_add(GaugeId id, std::int64_t delta) {
    if (counting()) cells_[id.cell] += static_cast<std::uint64_t>(delta);
  }
  void observe(HistogramId id, std::uint64_t value) {
    if (!counting()) return;
    ++cells_[id.first_cell + histogram_bucket(value)];
    cells_[id.first_cell + kHistogramBuckets] += value;
  }

  void span_begin(SpanName name, std::uint32_t track, sim::TimeNs at) {
    record_span(name, track, at, 'B');
  }
  void span_end(SpanName name, std::uint32_t track, sim::TimeNs at) {
    record_span(name, track, at, 'E');
  }
  void span_instant(SpanName name, std::uint32_t track, sim::TimeNs at) {
    record_span(name, track, at, 'i');
  }

  // --- cold reads -----------------------------------------------------------

  struct HistogramSnapshot {
    std::string name;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  struct Snapshot {
    Level level = Level::kOff;
    std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< sorted by name
    std::vector<std::pair<std::string, std::int64_t>> gauges;     ///< sorted by name
    std::vector<HistogramSnapshot> histograms;                    ///< sorted by name
    /// Attached keyed counters: name -> sorted (key, count) pairs.
    std::vector<std::pair<std::string, std::vector<std::pair<std::int64_t, std::uint64_t>>>>
        keyed;

    std::uint64_t counter_value(const std::string& name) const;
  };
  Snapshot snapshot() const;

  /// The flat stats JSON artifact (rendered back as a table by
  /// `dynprof_cli report`); schema in DESIGN.md §12.
  std::string stats_json() const;

  /// Chrome trace-event JSON (Perfetto / chrome://tracing loadable), one
  /// event per recorded span edge, timestamps in simulated microseconds.
  /// Unclosed spans are auto-closed at the latest recorded timestamp.
  std::string chrome_trace_json() const;

  /// Recorded span edges (begins + ends + instants).
  std::size_t span_event_count() const { return spans_.size(); }

 private:
  friend class KeyedCounter;

  struct SpanEvent {
    sim::TimeNs ts = 0;
    std::uint32_t name = 0;
    std::uint32_t track = 0;
    char phase = 'B';  ///< 'B' begin, 'E' end, 'i' instant
  };
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct MetricDef {
    Kind kind;
    std::string name;
    std::uint32_t first_cell = 0;
  };

  std::uint32_t register_metric(Kind kind, const std::string& name, std::uint32_t cells);
  void record_span(SpanName name, std::uint32_t track, sim::TimeNs at, char phase) {
    if (spans_enabled()) spans_.push_back(SpanEvent{at, name.id, track, phase});
  }

  Level level_;
  std::vector<std::uint64_t> cells_;  ///< counters, gauges, histogram buckets + sums
  std::vector<SpanEvent> spans_;      ///< append order
  std::vector<MetricDef> defs_;
  std::unordered_map<std::string, std::uint32_t> def_index_;
  std::vector<std::string> span_names_;
  std::unordered_map<std::string, std::uint32_t> span_name_index_;
  std::map<std::uint32_t, std::string> track_names_;
  std::vector<KeyedCounter*> keyed_;

  std::unique_ptr<Metrics> metrics_;
};

/// Data-plane counter keyed by an int64 (per-function sample histograms and
/// the like).  Unlike the level-gated registry cells, a KeyedCounter always
/// counts -- it *is* its owner's data structure, the registry attachment
/// only adds it to the exported stats.
class KeyedCounter {
 public:
  explicit KeyedCounter(std::string name);
  ~KeyedCounter();
  KeyedCounter(const KeyedCounter&) = delete;
  KeyedCounter& operator=(const KeyedCounter&) = delete;

  /// Include this counter in `registry`'s snapshots (detached automatically
  /// on destruction).  At most one registry at a time.
  void attach(Registry& registry);

  const std::string& name() const { return name_; }
  void add(std::int64_t key, std::uint64_t delta = 1);
  std::uint64_t total() const { return total_; }
  std::uint64_t at(std::int64_t key) const;  ///< 0 for unseen keys
  const std::unordered_map<std::int64_t, std::uint64_t>& snapshot() const { return counts_; }

 private:
  std::string name_;
  Registry* attached_ = nullptr;
  std::unordered_map<std::int64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// The registry the instrumented layers on the calling thread write to: the
/// innermost ScopedRegistry installed on this thread, else this thread's own
/// default registry (level = default_level()).  Never shared across threads.
Registry& current();

/// Installs a registry as current() on the calling thread for a scope
/// (Launch does this for the duration of a run, so every layer's hooks land
/// in the run's registry).  Nests like a stack; other threads are unaffected.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& registry);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

}  // namespace dyntrace::telemetry
