#include "telemetry/registry.hpp"

#include <algorithm>

#include "support/common.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::telemetry {

namespace {

/// This thread's installed registry (ScopedRegistry), or null for the
/// thread's default.
thread_local Registry* t_current = nullptr;

void append_json_string(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += str::format("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kOff: return "off";
    case Level::kCounters: return "counters";
    case Level::kSpans: return "spans";
  }
  return "?";
}

Level level_from_string(const std::string& name) {
  if (name == "off") return Level::kOff;
  if (name == "counters") return Level::kCounters;
  if (name == "spans") return Level::kSpans;
  fail("unknown telemetry level '", name, "' (off, counters, spans)");
}

Level default_level() {
#ifdef DYNTRACE_TELEMETRY_DEFAULT_LEVEL
  static_assert(DYNTRACE_TELEMETRY_DEFAULT_LEVEL >= 0 && DYNTRACE_TELEMETRY_DEFAULT_LEVEL <= 2,
                "DYNTRACE_TELEMETRY_DEFAULT_LEVEL must be 0 (off), 1 (counters) or 2 (spans)");
  return static_cast<Level>(DYNTRACE_TELEMETRY_DEFAULT_LEVEL);
#else
  return Level::kOff;
#endif
}

std::uint64_t histogram_bucket_lower(std::uint32_t bucket) {
  return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

Registry::Registry(Level level) : level_(level) {
  metrics_ = std::make_unique<Metrics>(*this);
}

Registry::~Registry() = default;

std::uint32_t Registry::register_metric(Kind kind, const std::string& name,
                                        std::uint32_t cells) {
  if (const auto it = def_index_.find(name); it != def_index_.end()) {
    const MetricDef& def = defs_[it->second];
    DT_EXPECT(def.kind == kind, "metric '", name, "' re-registered with a different kind");
    return def.first_cell;
  }
  const auto first = static_cast<std::uint32_t>(cells_.size());
  cells_.resize(cells_.size() + cells, 0);
  def_index_.emplace(name, static_cast<std::uint32_t>(defs_.size()));
  defs_.push_back(MetricDef{kind, name, first});
  return first;
}

CounterId Registry::counter(const std::string& name) {
  return CounterId{register_metric(Kind::kCounter, name, 1)};
}

GaugeId Registry::gauge(const std::string& name) {
  return GaugeId{register_metric(Kind::kGauge, name, 1)};
}

HistogramId Registry::histogram(const std::string& name) {
  return HistogramId{register_metric(Kind::kHistogram, name, kHistogramBuckets + 1)};
}

SpanName Registry::span_name(const std::string& name) {
  if (const auto it = span_name_index_.find(name); it != span_name_index_.end()) {
    return SpanName{it->second};
  }
  const auto id = static_cast<std::uint32_t>(span_names_.size());
  span_names_.push_back(name);
  span_name_index_.emplace(name, id);
  return SpanName{id};
}

void Registry::name_track(std::uint32_t track, const std::string& name) {
  track_names_[track] = name;
}

Registry::Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.level = level();
  std::vector<const MetricDef*> sorted;
  sorted.reserve(defs_.size());
  for (const MetricDef& def : defs_) sorted.push_back(&def);
  std::sort(sorted.begin(), sorted.end(),
            [](const MetricDef* a, const MetricDef* b) { return a->name < b->name; });
  for (const MetricDef* def : sorted) {
    switch (def->kind) {
      case Kind::kCounter:
        snap.counters.emplace_back(def->name, cells_[def->first_cell]);
        break;
      case Kind::kGauge:
        snap.gauges.emplace_back(def->name,
                                 static_cast<std::int64_t>(cells_[def->first_cell]));
        break;
      case Kind::kHistogram: {
        HistogramSnapshot hist;
        hist.name = def->name;
        for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
          hist.buckets[b] = cells_[def->first_cell + b];
          hist.count += hist.buckets[b];
        }
        hist.sum = cells_[def->first_cell + kHistogramBuckets];
        snap.histograms.push_back(std::move(hist));
        break;
      }
    }
  }
  for (const KeyedCounter* keyed : keyed_) {
    const auto& counts = keyed->snapshot();
    std::vector<std::pair<std::int64_t, std::uint64_t>> entries(counts.begin(), counts.end());
    std::sort(entries.begin(), entries.end());
    snap.keyed.emplace_back(keyed->name(), std::move(entries));
  }
  std::sort(snap.keyed.begin(), snap.keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

std::uint64_t Registry::Snapshot::counter_value(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::string Registry::stats_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\n";
  out += str::format("  \"level\": \"%s\",\n", to_string(snap.level));
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(&out, snap.counters[i].first);
    out += str::format(": %llu", static_cast<unsigned long long>(snap.counters[i].second));
  }
  out += "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(&out, snap.gauges[i].first);
    out += str::format(": %lld", static_cast<long long>(snap.gauges[i].second));
  }
  out += "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSnapshot& hist = snap.histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(&out, hist.name);
    out += str::format(": {\"count\": %llu, \"sum\": %llu, \"buckets\": [",
                       static_cast<unsigned long long>(hist.count),
                       static_cast<unsigned long long>(hist.sum));
    bool first = true;
    for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
      if (hist.buckets[b] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += str::format("[%llu, %llu]",
                         static_cast<unsigned long long>(histogram_bucket_lower(b)),
                         static_cast<unsigned long long>(hist.buckets[b]));
    }
    out += "]}";
  }
  out += "\n  },\n  \"keyed\": {";
  for (std::size_t i = 0; i < snap.keyed.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(&out, snap.keyed[i].first);
    out += ": {";
    const auto& entries = snap.keyed[i].second;
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (k > 0) out += ", ";
      append_json_string(&out, str::format("%lld", static_cast<long long>(entries[k].first)));
      out += str::format(": %llu", static_cast<unsigned long long>(entries[k].second));
    }
    out += "}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string Registry::chrome_trace_json() const {
  // Append order breaks timestamp ties, so a stable sort by ts alone gives
  // the export order.
  std::vector<SpanEvent> events = spans_;
  std::stable_sort(events.begin(), events.end(),
                   [](const SpanEvent& a, const SpanEvent& b) { return a.ts < b.ts; });
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    out += first ? "\n" : ",\n";
    first = false;
    out += event;
  };
  // Track metadata: Perfetto renders these as thread names.
  for (const auto& [track, name] : track_names_) {
    std::string meta = str::format(
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": %u, \"name\": \"thread_name\", \"args\": {\"name\": ",
        track);
    append_json_string(&meta, name);
    meta += "}}";
    emit(meta);
  }
  const auto emit_event = [&](char phase, std::uint32_t name, std::uint32_t track,
                              sim::TimeNs ts) {
    std::string e = str::format("{\"ph\": \"%c\", \"ts\": %.3f, \"pid\": 0, \"tid\": %u, ",
                                phase, sim::to_microseconds(ts), track);
    e += "\"cat\": \"dyntrace\", \"name\": ";
    append_json_string(&e, name < span_names_.size() ? span_names_[name]
                                                     : str::format("span%u", name));
    if (phase == 'i') e += ", \"s\": \"t\"";
    e += "}";
    emit(e);
  };
  // Depth of open spans per track, to auto-close anything a killed process
  // never unwound (its coroutine frames may be destroyed without running).
  std::map<std::uint32_t, std::vector<std::uint32_t>> open;
  sim::TimeNs last_ts = 0;
  for (const SpanEvent& event : events) {
    last_ts = std::max(last_ts, event.ts);
    if (event.phase == 'B') {
      open[event.track].push_back(event.name);
    } else if (event.phase == 'E') {
      auto& stack = open[event.track];
      if (stack.empty()) continue;  // unmatched end: drop rather than corrupt nesting
      stack.pop_back();
    }
    emit_event(event.phase, event.name, event.track, event.ts);
  }
  for (const auto& [track, stack] : open) {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      emit_event('E', *it, track, last_ts);
    }
  }
  out += "\n]}\n";
  return out;
}

// --- KeyedCounter -----------------------------------------------------------

KeyedCounter::KeyedCounter(std::string name) : name_(std::move(name)) {}

KeyedCounter::~KeyedCounter() {
  if (attached_ == nullptr) return;
  auto& keyed = attached_->keyed_;
  keyed.erase(std::remove(keyed.begin(), keyed.end(), this), keyed.end());
}

void KeyedCounter::attach(Registry& registry) {
  DT_EXPECT(attached_ == nullptr || attached_ == &registry,
            "keyed counter '", name_, "' already attached to another registry");
  if (attached_ == &registry) return;
  registry.keyed_.push_back(this);
  attached_ = &registry;
}

void KeyedCounter::add(std::int64_t key, std::uint64_t delta) {
  counts_[key] += delta;
  total_ += delta;
}

std::uint64_t KeyedCounter::at(std::int64_t key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

// --- current registry -------------------------------------------------------

Registry& current() {
  if (t_current != nullptr) return *t_current;
  static thread_local Registry fallback(default_level());
  return fallback;
}

ScopedRegistry::ScopedRegistry(Registry& registry) : previous_(t_current) {
  t_current = &registry;
}

ScopedRegistry::~ScopedRegistry() { t_current = previous_; }

}  // namespace dyntrace::telemetry
