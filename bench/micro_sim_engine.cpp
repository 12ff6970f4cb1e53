// Simulation-substrate throughput baseline (DESIGN.md §8): the
// zero-allocation EventQueue against the legacy std::function +
// unordered_map design it replaced.
//
// Emits BENCH_sim.json so the perf trajectory has a tracked artifact next
// to BENCH_control.json.  Shape checks: the queue speedups on schedule/pop
// and schedule/cancel, and that every surviving event fired exactly once.
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "sim/event_queue.hpp"
#include "support/rng.hpp"

namespace {

using namespace dyntrace;
using sim::TimeNs;

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

/// The pre-refactor pending-event set, reconstructed as the baseline: one
/// std::function heap allocation per event, an unordered_map as the live
/// table (cancel = erase), and dead heap entries skipped on pop.
class LegacyQueue {
 public:
  std::uint64_t schedule(TimeNs at, std::function<void()> cb) {
    heap_.push(Entry{at, next_seq_});
    live_.emplace(next_seq_, std::move(cb));
    return next_seq_++;
  }
  bool cancel(std::uint64_t id) { return live_.erase(id) > 0; }
  bool empty() {
    while (!heap_.empty() && live_.find(heap_.top().seq) == live_.end()) heap_.pop();
    return heap_.empty();
  }
  std::pair<TimeNs, std::function<void()>> pop() {
    const Entry top = heap_.top();
    heap_.pop();
    auto it = live_.find(top.seq);
    std::pair<TimeNs, std::function<void()>> out{top.time, std::move(it->second)};
    live_.erase(it);
    return out;
  }

 private:
  struct Entry {
    TimeNs time;
    std::uint64_t seq;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_map<std::uint64_t, std::function<void()>> live_;
  std::uint64_t next_seq_ = 0;
};

struct QueueRate {
  double events_per_s = 0;
  std::uint64_t fired = 0;  ///< folded into the JSON so the work cannot be elided
};

/// What an engine callback actually carries: a coroutine handle plus the
/// engine/process context it resumes with -- ~40 bytes.  Past
/// std::function's 16-byte inline buffer (so the legacy design pays one
/// heap allocation per event), within InlineCallback's 64-byte SBO.
struct EventPayload {
  QueueRate* rate;
  void* engine;
  void* process;
  std::uint64_t seq;
  TimeNs when;
  void operator()() const { ++rate->fired; }
};

/// A pending set `window` deep (fig8 scale: 512 ranks x in-flight
/// messages), alternating pop + schedule `total` times.  Deep sets are
/// where the legacy design collapses: the unordered_map live table and the
/// per-event std::function allocations go cache-cold, while the slot table
/// and 24-byte heap entries stay compact.
template <typename Queue>
QueueRate schedule_pop_rate(int window, std::uint64_t total) {
  QueueRate rate;
  Rng rng(7);
  Queue queue;
  const auto payload = [&](TimeNs at, std::uint64_t seq) {
    return EventPayload{&rate, &queue, &rng, seq, at};
  };
  for (int i = 0; i < window; ++i) {
    const auto at = static_cast<TimeNs>(rng.next_below(1'000'000));
    queue.schedule(at, payload(at, static_cast<std::uint64_t>(i)));
  }
  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    auto [now, cb] = queue.pop();
    cb();
    queue.schedule(now + 1 + static_cast<TimeNs>(rng.next_below(1'000'000)),
                   payload(now, i));
  }
  rate.events_per_s = static_cast<double>(total) / seconds_since(begin);
  while (!queue.empty()) queue.pop().second();
  return rate;
}

/// The timeout pattern: a window of `window` live events, `churn` rounds of
/// cancel-the-oldest + schedule-a-new; pop the window at the end.
template <typename Queue, typename Id>
QueueRate schedule_cancel_rate(int window, int churn) {
  QueueRate rate;
  const auto begin = std::chrono::steady_clock::now();
  Rng rng(11);
  Queue queue;
  std::vector<Id> ids;
  TimeNs horizon = 1'000'000;
  std::uint64_t seq = 0;
  const auto payload = [&](TimeNs at) {
    return EventPayload{&rate, &queue, &ids, seq++, at};
  };
  for (int i = 0; i < window; ++i) {
    const auto at = static_cast<TimeNs>(rng.next_below(1'000'000));
    ids.push_back(queue.schedule(at, payload(at)));
  }
  for (int i = 0; i < churn; ++i) {
    queue.cancel(ids[static_cast<std::size_t>(i % window)]);
    const auto at = horizon + static_cast<TimeNs>(rng.next_below(1'000'000));
    ids[static_cast<std::size_t>(i % window)] = queue.schedule(at, payload(at));
    ++horizon;
  }
  while (!queue.empty()) queue.pop().second();
  rate.events_per_s = static_cast<double>(window + 2 * churn) / seconds_since(begin);
  return rate;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  std::int64_t queue_n = 16384;
  std::int64_t queue_reps = 40;
  std::string json_path = "BENCH_sim.json";
  CliParser parser("micro_sim_engine", "Event-queue throughput baseline (BENCH_sim.json)");
  parser.option_int("queue-n", "events per schedule/pop round (default 16384)", &queue_n);
  parser.option_int("queue-reps", "schedule/pop rounds (default 40)", &queue_reps);
  parser.option_string("json", "output artifact (default BENCH_sim.json)", &json_path);
  if (!parser.parse(argc, argv)) return 0;

  // --- EventQueue vs the legacy std::function design ----------------------
  std::puts("event-queue throughput (events/s)\n");
  const int n = static_cast<int>(queue_n);
  const int reps = static_cast<int>(queue_reps);
  // Pending-set depth: 512 ranks x ~16 in-flight events each (fig8 scale).
  const int sp_window = 8192;
  const auto total = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(reps);
  const QueueRate legacy_sp = schedule_pop_rate<LegacyQueue>(sp_window, total);
  const QueueRate new_sp = schedule_pop_rate<sim::EventQueue>(sp_window, total);
  const int churn = n * reps / 2;
  const QueueRate legacy_sc = schedule_cancel_rate<LegacyQueue, std::uint64_t>(1024, churn);
  const QueueRate new_sc = schedule_cancel_rate<sim::EventQueue, sim::EventId>(1024, churn);
  const double sp_speedup = new_sp.events_per_s / legacy_sp.events_per_s;
  const double sc_speedup = new_sc.events_per_s / legacy_sc.events_per_s;

  TextTable queue_table({"Workload", "Legacy", "Zero-alloc", "Speedup"});
  queue_table.add_row({"schedule/pop", TextTable::num(legacy_sp.events_per_s, 0),
                       TextTable::num(new_sp.events_per_s, 0),
                       TextTable::num(sp_speedup, 2) + "x"});
  queue_table.add_row({"schedule/cancel", TextTable::num(legacy_sc.events_per_s, 0),
                       TextTable::num(new_sc.events_per_s, 0),
                       TextTable::num(sc_speedup, 2) + "x"});
  std::fputs(queue_table.render().c_str(), stdout);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"queue\": {\n"
               "    \"events\": %d,\n"
               "    \"schedule_pop\": {\"legacy_eps\": %.0f, \"new_eps\": %.0f, "
               "\"speedup\": %.2f},\n"
               "    \"schedule_cancel\": {\"legacy_eps\": %.0f, \"new_eps\": %.0f, "
               "\"speedup\": %.2f},\n"
               "    \"fired\": %llu\n"
               "  }\n"
               "}\n",
               n, legacy_sp.events_per_s, new_sp.events_per_s, sp_speedup,
               legacy_sc.events_per_s, new_sc.events_per_s, sc_speedup,
               static_cast<unsigned long long>(legacy_sp.fired + new_sp.fired +
                                               legacy_sc.fired + new_sc.fired));
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  // schedule/pop is heap-bound for both designs, so the live-table and
  // allocation savings show as ~2x; the cancel-churn workload, where the
  // legacy heap fills with dead entries, is where the redesign pays 3x+.
  checks.push_back({"zero-alloc queue >= 1.5x legacy on schedule/pop", sp_speedup >= 1.5});
  checks.push_back({"zero-alloc queue >= 3x legacy on schedule/cancel (timeout churn)",
                    sc_speedup >= 3.0});
  // schedule/pop fires its churned total plus the final live window; the
  // cancel loop cancels exactly `churn` of its `window + churn` events, so
  // only the final window survives to fire.
  checks.push_back({"every surviving event fired exactly once",
                    new_sp.fired == total + static_cast<std::uint64_t>(sp_window) &&
                        legacy_sp.fired == total + static_cast<std::uint64_t>(sp_window) &&
                        new_sc.fired == 1024 && legacy_sc.fired == 1024});
  return report_checks(checks);
}
