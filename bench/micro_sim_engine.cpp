// Simulation-substrate throughput baseline (DESIGN.md §8): the
// zero-allocation EventQueue on a deep schedule/pop set and on timeout
// churn (schedule + cancel), and a simulated leaf call
// (SimThread::call_function(fn, work)) through a patched function.
//
// Emits BENCH_sim.json so the perf trajectory has a tracked artifact next
// to BENCH_control.json.  Rates are reported, not gated (wall-clock ratios
// race on shared hosts).  Shape checks are exact counts: the steady-state
// loops perform zero heap allocations -- counted by this binary's
// replacement operator new -- every surviving event fired exactly once,
// and every leaf call completed at its exact simulated time.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "image/snippet.hpp"
#include "machine/cluster.hpp"
#include "proc/process.hpp"
#include "sim/event_queue.hpp"
#include "support/rng.hpp"

namespace {

/// Heap allocations made by this process so far (every operator new form
/// routes through the replacements below).
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dyntrace;
using sim::TimeNs;

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

struct QueueRun {
  double events_per_s = 0;
  std::uint64_t fired = 0;        ///< folded into the JSON so the work cannot be elided
  std::uint64_t allocations = 0;  ///< heap allocations inside the steady-state loop
};

/// What an engine callback actually carries: a coroutine handle plus the
/// engine/process context it resumes with -- ~40 bytes, past
/// std::function's 16-byte inline buffer but within InlineCallback's
/// 64-byte SBO.
struct EventPayload {
  QueueRun* run;
  void* engine;
  void* process;
  std::uint64_t seq;
  TimeNs when;
  void operator()() const { ++run->fired; }
};

/// A pending set `window` deep (fig8 scale: 512 ranks x in-flight
/// messages), alternating pop + schedule `total` times.  A warm-up of
/// `window` rounds first brings the queue's tables to their steady size.
QueueRun schedule_pop(int window, std::uint64_t total) {
  QueueRun run;
  Rng rng(7);
  sim::EventQueue queue;
  const auto payload = [&](TimeNs at, std::uint64_t seq) {
    return EventPayload{&run, &queue, &rng, seq, at};
  };
  for (int i = 0; i < window; ++i) {
    const auto at = static_cast<TimeNs>(rng.next_below(1'000'000));
    queue.schedule(at, payload(at, static_cast<std::uint64_t>(i)));
  }
  const auto round = [&](std::uint64_t i) {
    auto [now, cb] = queue.pop();
    cb();
    queue.schedule(now + 1 + static_cast<TimeNs>(rng.next_below(1'000'000)),
                   payload(now, i));
  };
  for (int i = 0; i < window; ++i) round(static_cast<std::uint64_t>(i));
  const std::uint64_t allocs_before = g_allocations.load();
  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total; ++i) round(i);
  run.events_per_s = static_cast<double>(total) / seconds_since(begin);
  run.allocations = g_allocations.load() - allocs_before;
  while (!queue.empty()) queue.pop().second();
  return run;
}

/// The timeout pattern: a window of `window` live events, `churn` rounds of
/// cancel-the-oldest + schedule-a-new; pop the window at the end.  A
/// warm-up of 4 x `window` rounds first runs the heap through compactions
/// (dead entries grow it to 2x the live window before each rebuild).
QueueRun schedule_cancel(int window, std::uint64_t churn) {
  QueueRun run;
  Rng rng(11);
  sim::EventQueue queue;
  std::vector<sim::EventId> ids;
  TimeNs horizon = 1'000'000;
  std::uint64_t seq = 0;
  const auto payload = [&](TimeNs at) {
    return EventPayload{&run, &queue, &ids, seq++, at};
  };
  for (int i = 0; i < window; ++i) {
    const auto at = static_cast<TimeNs>(rng.next_below(1'000'000));
    ids.push_back(queue.schedule(at, payload(at)));
  }
  const auto round = [&](std::uint64_t i) {
    const auto k = static_cast<std::size_t>(i % static_cast<std::uint64_t>(window));
    queue.cancel(ids[k]);
    const auto at = horizon + static_cast<TimeNs>(rng.next_below(1'000'000));
    ids[k] = queue.schedule(at, payload(at));
    ++horizon;
  };
  for (std::uint64_t i = 0; i < 4 * static_cast<std::uint64_t>(window); ++i) round(i);
  const std::uint64_t allocs_before = g_allocations.load();
  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < churn; ++i) round(i);
  run.events_per_s = static_cast<double>(2 * churn) / seconds_since(begin);
  run.allocations = g_allocations.load() - allocs_before;
  while (!queue.empty()) queue.pop().second();
  return run;
}

struct LeafRun {
  double calls_per_s = 0;
  std::uint64_t calls = 0;           ///< leaf calls completed, both ranks
  std::uint64_t allocations = 0;     ///< heap allocations after the warm-up
  std::uint64_t events = 0;          ///< engine events, in-place wake-ups included
  std::uint64_t inline_wakeups = 0;  ///< of `events`, run in place
  bool exact_times = false;          ///< each rank finished at n x (work + trampolines)
};

/// Two ranks calling a patched leaf `calls_per_rank` times each: every
/// call runs the probe protocol (entry and exit base trampolines with one
/// NoOp mini each, a snippet snapshot, a snippet frame) around
/// compute(work).  The ranks' works differ, so their wake-ups interleave:
/// some are the next event and run in place, the rest go through the
/// queue.  The first quarter of the run is warm-up: it brings the frame
/// pool, the event slots and the call stacks to their steady size.
LeafRun leaf_calls(std::int64_t calls_per_rank) {
  constexpr int kRanks = 2;
  constexpr TimeNs kWork[kRanks] = {700, 1100};
  constexpr image::FunctionId kLeaf = 1;
  LeafRun run;
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main");
  symbols->add("leaf");
  std::vector<std::unique_ptr<proc::SimProcess>> ranks;
  std::vector<TimeNs> finished(kRanks, -1);
  for (int r = 0; r < kRanks; ++r) {
    ranks.push_back(
        std::make_unique<proc::SimProcess>(cluster, r, 0, r, image::ProgramImage(symbols)));
    image::ProgramImage& img = ranks.back()->image();
    img.install_probe(kLeaf, image::ProbeWhere::kEntry, image::snippet::noop());
    img.install_probe(kLeaf, image::ProbeWhere::kExit, image::snippet::noop());
    engine.spawn(
        [](proc::SimThread& t, std::int64_t n, TimeNs work, std::uint64_t& calls,
           TimeNs& done) -> sim::Coro<void> {
          for (std::int64_t i = 0; i < n; ++i) {
            co_await t.call_function(kLeaf, work);
            ++calls;
          }
          done = t.engine().now();
        }(ranks.back()->main_thread(), calls_per_rank, kWork[r], run.calls,
          finished[static_cast<std::size_t>(r)]),
        "rank" + std::to_string(r));
  }
  engine.run(calls_per_rank * kWork[0] / 4);
  const std::uint64_t calls_before = run.calls;
  const std::uint64_t allocs_before = g_allocations.load();
  const auto begin = std::chrono::steady_clock::now();
  engine.run();
  run.calls_per_s = static_cast<double>(run.calls - calls_before) / seconds_since(begin);
  run.allocations = g_allocations.load() - allocs_before;
  run.events = engine.events_executed();
  run.inline_wakeups = engine.inline_wakeups();

  const machine::CostModel& costs = cluster.spec().costs;
  const image::ProgramImage& img = ranks.front()->image();
  const TimeNs tramps = img.trampoline_overhead(kLeaf, image::ProbeWhere::kEntry, costs) +
                        img.trampoline_overhead(kLeaf, image::ProbeWhere::kExit, costs);
  run.exact_times = true;
  for (int r = 0; r < kRanks; ++r) {
    run.exact_times = run.exact_times && finished[static_cast<std::size_t>(r)] ==
                                             calls_per_rank * (kWork[r] + tramps);
  }
  return run;
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  int n = 16384;
  int reps = 40;
  std::string json_path = "BENCH_sim.json";
  CliParser parser("micro_sim_engine", "Event-queue throughput baseline (BENCH_sim.json)");
  parser.option_int("queue-n", "events per schedule/pop round (default 16384)", &n);
  parser.option_int("queue-reps", "schedule/pop rounds (default 40)", &reps);
  parser.option_string("json", "output artifact (default BENCH_sim.json)", &json_path);
  if (!parser.parse(argc, argv)) return 0;
  // Zero rounds would pass both zero-allocation gates over no events.
  DT_EXPECT(n >= 1, "--queue-n must be >= 1 (got ", n, ")");
  DT_EXPECT(reps >= 1, "--queue-reps must be >= 1 (got ", reps, ")");

  std::puts("event-queue throughput (steady-state loops)\n");
  // Pending-set depth: 512 ranks x ~16 in-flight events each (fig8 scale).
  const int sp_window = 8192;
  const int sc_window = 1024;
  const auto total = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(reps);
  const std::uint64_t churn = (total + 1) / 2;
  const QueueRun sp = schedule_pop(sp_window, total);
  const QueueRun sc = schedule_cancel(sc_window, churn);
  const std::int64_t leaf_calls_per_rank = 200000;
  const LeafRun leaf = leaf_calls(leaf_calls_per_rank);

  TextTable queue_table({"Workload", "Events/s", "Heap allocations"});
  queue_table.add_row({"schedule/pop", TextTable::num(sp.events_per_s, 0),
                       std::to_string(sp.allocations)});
  queue_table.add_row({"schedule/cancel", TextTable::num(sc.events_per_s, 0),
                       std::to_string(sc.allocations)});
  std::fputs(queue_table.render().c_str(), stdout);

  std::puts("\nsimulated leaf call (call_function(fn, work), patched, 2 ranks)\n");
  TextTable leaf_table({"Calls/s", "Heap allocations", "Events", "In place"});
  leaf_table.add_row({TextTable::num(leaf.calls_per_s, 0), std::to_string(leaf.allocations),
                      std::to_string(leaf.events), std::to_string(leaf.inline_wakeups)});
  std::fputs(leaf_table.render().c_str(), stdout);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"queue\": {\n"
               "    \"events\": %d,\n"
               "    \"schedule_pop\": {\"eps\": %.0f, \"allocations\": %llu},\n"
               "    \"schedule_cancel\": {\"eps\": %.0f, \"allocations\": %llu},\n"
               "    \"fired\": %llu\n"
               "  },\n"
               "  \"leaf_call\": {\"calls_per_s\": %.0f, \"allocations\": %llu, "
               "\"events\": %llu, \"inline_wakeups\": %llu}\n"
               "}\n",
               n, sp.events_per_s, static_cast<unsigned long long>(sp.allocations),
               sc.events_per_s, static_cast<unsigned long long>(sc.allocations),
               static_cast<unsigned long long>(sp.fired + sc.fired), leaf.calls_per_s,
               static_cast<unsigned long long>(leaf.allocations),
               static_cast<unsigned long long>(leaf.events),
               static_cast<unsigned long long>(leaf.inline_wakeups));
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  checks.push_back({"zero heap allocations in the steady-state schedule/pop loop",
                    sp.allocations == 0});
  checks.push_back({"zero heap allocations in the steady-state schedule/cancel loop",
                    sc.allocations == 0});
  // schedule/pop fires its warm-up and churned rounds plus the final live
  // window; the cancel loop cancels one event per round, so only the final
  // window survives to fire.
  checks.push_back({"every surviving event fired exactly once",
                    sp.fired == total + 2 * static_cast<std::uint64_t>(sp_window) &&
                        sc.fired == static_cast<std::uint64_t>(sc_window)});
  checks.push_back({"zero heap allocations in the steady-state simulated leaf-call loop",
                    leaf.allocations == 0});
  checks.push_back({"every leaf call completed, at its exact simulated time",
                    leaf.calls == 2 * static_cast<std::uint64_t>(leaf_calls_per_rank) &&
                        leaf.exact_times});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
