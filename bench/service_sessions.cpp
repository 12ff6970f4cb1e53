// Multi-tenant control-service bench (DESIGN.md §13): N simulated user
// sessions attach to one shared target job through the ControlService and
// issue instrument/confsync/subscribe/report scripts concurrently.
//
// Reports sessions/sec (host wall clock), p50/p99 command latency (sim
// time), the admission outcome mix, the run-to-run determinism check (a
// rerun of the main cell must reproduce its digests bit for bit), the
// batched-driver
// cell (100k sessions on a few hundred driver coroutines, so memory stays
// flat in session count), the admission invariant (priced overhead <=
// budget, or at_floor, in every window), and the admission work per
// instrument command and the admission-queue entries retry passes visit
// per command -- exact op counts: queue retries skip requests whose denial
// inputs did not change, and skip the whole scan while nothing a scan
// reads has changed, so every sweep cell must stay within the exact bounds
// that promise implies (and, at the default inventory, at or under
// kMaxEvalsPerInstrument and kMaxQueueVisitsPerCommand) -- and the
// event-queue pushes and cancels per command: response deadlines share
// one watchdog timer instead of a timer per command, so every sweep cell
// must make at most kMaxResponseTimerCancels cancels for them.  Emits
// BENCH_service.json;
// shape-check failures exit non-zero, so CI's service-smoke step gates on
// every one of them.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "service/scenario.hpp"

namespace {

using namespace dyntrace;
using bench::ShapeCheck;

/// AdmissionController::admit calls allowed per instrument command.  One
/// is the arrival; a queued request is re-priced only when the pricing
/// epoch moved since its last denial.
constexpr double kMaxEvalsPerInstrument = 4.0;

/// Queue entries retry passes examine per command.  A pass runs only when
/// the pricing epoch moved or a queued entry expired; scanning the whole
/// queue at every detach and window read 31.8 at 1k sessions and 161 at
/// 10k.
constexpr double kMaxQueueVisitsPerCommand = 1.0;

/// The function inventory the two per-command ceilings above hold at.  A
/// larger inventory means more contention for the budget: more requests
/// queue and wait through more epoch advances, so the per-command counts
/// grow with --functions.  Every inventory is held to the exact bounds the
/// retry design promises (evals_bounded, visits_bounded).
constexpr int kGateFunctions = 32;

/// Event-queue cancels the response deadlines of a whole run make: one,
/// the watchdog's stand-down once every driver is done.  A timer armed and
/// cancelled per command made one per command.  The run's other cancels
/// are the target job's own timed waits, which vary with --ranks,
/// --functions and the run's length rather than with commands, so they
/// are reported per command but not gated.
constexpr std::uint64_t kMaxResponseTimerCancels = 1;

sim::TimeNs percentile(std::vector<sim::TimeNs> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto index = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

struct Cell {
  int sessions = 0;
  service::ScenarioResult result;
  double sessions_per_sec = 0;
  sim::TimeNs p50 = 0;
  sim::TimeNs p99 = 0;
  std::uint64_t instruments = 0;
  double evals_per_instrument = 0;
  double queue_visits_per_command = 0;
  double pushes_per_command = 0;
  double cancels_per_command = 0;
};

Cell run_cell(const service::ScenarioOptions& base, int sessions) {
  service::ScenarioOptions options = base;
  options.sessions = sessions;
  Cell cell;
  cell.sessions = sessions;
  cell.result = service::run_scenario(options);
  cell.sessions_per_sec = cell.result.host_seconds > 0
                              ? static_cast<double>(sessions) / cell.result.host_seconds
                              : 0;
  std::vector<sim::TimeNs> sorted = cell.result.latencies;
  std::sort(sorted.begin(), sorted.end());
  cell.p50 = percentile(sorted, 0.50);
  cell.p99 = percentile(sorted, 0.99);
  for (const auto& session : cell.result.sessions) {
    for (const auto& command : session.commands) {
      cell.instruments += command.kind == service::CommandKind::kInstrument ? 1 : 0;
    }
  }
  cell.evals_per_instrument =
      cell.instruments > 0 ? static_cast<double>(cell.result.admission_evals) /
                                 static_cast<double>(cell.instruments)
                           : 0;
  const auto per_command = [&cell](std::uint64_t ops) {
    return cell.result.commands > 0
               ? static_cast<double>(ops) / static_cast<double>(cell.result.commands)
               : 0;
  };
  cell.queue_visits_per_command = per_command(cell.result.queue_visits);
  cell.pushes_per_command = per_command(cell.result.event_pushes);
  cell.cancels_per_command = per_command(cell.result.event_cancels);
  std::fprintf(stderr, ".");
  std::fflush(stderr);
  return cell;
}

/// Admission work within the retry design's exact bounds (a queued request
/// is re-priced only after the epoch moved; a retry pass runs only after
/// the epoch moved or an entry expired), and, at the gated inventory,
/// within the per-command ceilings too.
bool evals_bounded(const Cell& cell, bool at_gated_inventory) {
  const service::ScenarioResult& r = cell.result;
  return r.admission_evals <= cell.instruments + r.queue_epoch_waits &&
         (!at_gated_inventory || cell.evals_per_instrument <= kMaxEvalsPerInstrument);
}

bool visits_bounded(const Cell& cell, bool at_gated_inventory) {
  const service::ScenarioResult& r = cell.result;
  return r.queue_visits <= r.queued_admits + r.queue_epoch_waits + r.expiry_scan_visits &&
         (!at_gated_inventory || cell.queue_visits_per_command <= kMaxQueueVisitsPerCommand);
}

std::uint64_t count(const Cell& cell, service::Status status) {
  const auto it = cell.result.status_counts.find(status);
  return it != cell.result.status_counts.end() ? it->second : 0;
}

}  // namespace

int bench_main(int argc, char** argv) {
  int sessions = 10'000;
  int ranks = 8;
  int functions = 32;
  int commands = 4;
  std::int64_t seed = 42;
  int batch_sessions = 100'000;
  int session_batch = 512;
  bool skip_determinism = false;
  bool skip_batch = false;
  std::string json_path = "BENCH_service.json";

  CliParser cli("service_sessions",
                         "Concurrent control-service sessions against one shared job");
  cli.option_int("sessions", "session count for the main cell", &sessions)
      .option_int("ranks", "MPI ranks of the shared target job", &ranks)
      .option_int("functions", "target app function inventory", &functions)
      .option_int("commands", "commands per session between attach/detach", &commands)
      .option_int("seed", "base RNG seed", &seed)
      .option_int("batch-sessions", "session count for the batched-driver cell", &batch_sessions)
      .option_int("session-batch", "sessions per driver coroutine in that cell", &session_batch)
      .flag("skip-determinism", "skip the rerun digest comparison", &skip_determinism)
      .flag("skip-batch", "skip the batched-driver 100k-session cell", &skip_batch)
      .option_string("json", "output JSON path", &json_path);
  if (!cli.parse(argc, argv)) return 0;

  service::ScenarioOptions base;
  base.ranks = ranks;
  base.functions = functions;
  base.commands_per_session = commands;
  base.seed = static_cast<std::uint64_t>(seed);

  // --- Part 1: throughput sweep ---------------------------------------------
  std::puts("Part 1: session throughput, one shared job\n");
  std::vector<int> sweep_counts{1'000};
  if (sessions != 1'000) sweep_counts.push_back(sessions);
  std::vector<Cell> sweep;
  for (const int n : sweep_counts) sweep.push_back(run_cell(base, n));
  std::fprintf(stderr, "\n");

  TextTable table({"Sessions", "Sessions/s", "p50 ms", "p99 ms", "Admit", "Degrade",
                            "Deny", "Timeout", "Windows", "Sim s", "Evals/instr",
                            "Visits/cmd", "Pushes/cmd", "Cancels/cmd", "Timer cancels"});
  for (const Cell& cell : sweep) {
    table.add_row({std::to_string(cell.sessions),
                   TextTable::num(cell.sessions_per_sec, 0),
                   TextTable::num(sim::to_seconds(cell.p50) * 1e3, 3),
                   TextTable::num(sim::to_seconds(cell.p99) * 1e3, 3),
                   std::to_string(count(cell, service::Status::kAdmitted)),
                   std::to_string(count(cell, service::Status::kDegraded)),
                   std::to_string(count(cell, service::Status::kDenied)),
                   std::to_string(count(cell, service::Status::kTimeout)),
                   std::to_string(cell.result.windows.size()),
                   TextTable::num(cell.result.sim_seconds, 3),
                   TextTable::num(cell.evals_per_instrument, 2),
                   TextTable::num(cell.queue_visits_per_command, 2),
                   TextTable::num(cell.pushes_per_command, 3),
                   TextTable::num(cell.cancels_per_command, 4),
                   std::to_string(cell.result.response_timer_cancels)});
  }
  std::fputs(table.render().c_str(), stdout);

  // --- Part 2: run-to-run determinism ---------------------------------------
  // Rerun the main cell; both runs must agree bit for bit.
  std::vector<Cell> det;
  bool identical = true;
  if (!skip_determinism) {
    std::puts("\nPart 2: bit-identical digests across two runs of the main cell\n");
    const Cell& first = sweep.back();
    det.push_back(run_cell(base, sessions));
    std::fprintf(stderr, "\n");
    TextTable dtable({"Run", "Digest", "Stats digest", "Host s"});
    const Cell* runs[] = {&first, &det.front()};
    int run = 0;
    for (const Cell* cell : runs) {
      identical = identical && cell->result.digest == first.result.digest &&
                  cell->result.stats_digest == first.result.stats_digest;
      char digest[32];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(cell->result.digest));
      char stats[32];
      std::snprintf(stats, sizeof stats, "%016llx",
                    static_cast<unsigned long long>(cell->result.stats_digest));
      dtable.add_row({std::to_string(++run), digest, stats,
                      TextTable::num(cell->result.host_seconds, 2)});
    }
    std::fputs(dtable.render().c_str(), stdout);
  }

  // --- Part 3: batched drivers, memory flat in session count -----------------
  std::vector<Cell> batch_cells;
  if (!skip_batch) {
    std::printf("\nPart 3: batched drivers -- %lld sessions, %lld per driver coroutine\n\n",
                static_cast<long long>(batch_sessions), static_cast<long long>(session_batch));
    service::ScenarioOptions batched = base;
    batched.session_batch = session_batch;
    batch_cells.push_back(run_cell(batched, batch_sessions));
    std::fprintf(stderr, "\n");
    const Cell& cell = batch_cells.front();
    const long long drivers = (std::int64_t{batch_sessions} + session_batch - 1) /
                              (session_batch > 0 ? session_batch : 1);
    TextTable btable({"Sessions", "Batch", "Drivers", "Sessions/s", "p50 ms", "p99 ms",
                      "Shed", "Sub drops", "Windows", "Sim s", "Host s", "Digest"});
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(cell.result.digest));
    btable.add_row({std::to_string(cell.sessions), std::to_string(session_batch),
                    std::to_string(drivers), TextTable::num(cell.sessions_per_sec, 0),
                    TextTable::num(sim::to_seconds(cell.p50) * 1e3, 3),
                    TextTable::num(sim::to_seconds(cell.p99) * 1e3, 3),
                    std::to_string(cell.result.shed_commands),
                    std::to_string(cell.result.sub_drops),
                    std::to_string(cell.result.windows.size()),
                    TextTable::num(cell.result.sim_seconds, 3),
                    TextTable::num(cell.result.host_seconds, 2), digest});
    std::fputs(btable.render().c_str(), stdout);
  }

  // --- Part 4: admission invariant ------------------------------------------
  std::size_t windows_total = 0;
  std::size_t violations = 0;
  std::size_t at_floor = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t total_commands = 0;
  std::uint64_t expected_commands = 0;
  for (const std::vector<Cell>* cells : {&sweep, &det, &batch_cells}) {
    for (const Cell& cell : *cells) {
      windows_total += cell.result.windows.size();
      violations += cell.result.budget_violations;
      for (const service::WindowRecord& window : cell.result.windows) {
        at_floor += window.at_floor ? 1 : 0;
      }
      timeouts += count(cell, service::Status::kTimeout);
      total_commands += cell.result.commands;
      expected_commands += static_cast<std::uint64_t>(cell.sessions) *
                           static_cast<std::uint64_t>(commands + 2);
    }
  }
  std::printf("\nadmission invariant: %zu windows, %zu violations, %zu at-floor\n",
              windows_total, violations, at_floor);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const Cell& cell = sweep[i];
    std::fprintf(
        f,
        "    {\"sessions\": %d, \"sessions_per_sec\": %.1f, \"p50_ns\": %lld,"
        " \"p99_ns\": %lld, \"admitted\": %llu, \"degraded\": %llu, \"denied\": %llu,"
        " \"timeouts\": %llu, \"windows\": %zu, \"sim_seconds\": %.6f,"
        " \"host_seconds\": %.3f, \"admission_evals_per_instrument\": %.3f,"
        " \"queue_visits_per_command\": %.3f, \"event_pushes\": %llu,"
        " \"event_cancels\": %llu, \"pushes_per_command\": %.4f,"
        " \"cancels_per_command\": %.6f, \"response_timer_cancels\": %llu}%s\n",
        cell.sessions, cell.sessions_per_sec, static_cast<long long>(cell.p50),
        static_cast<long long>(cell.p99),
        static_cast<unsigned long long>(count(cell, service::Status::kAdmitted)),
        static_cast<unsigned long long>(count(cell, service::Status::kDegraded)),
        static_cast<unsigned long long>(count(cell, service::Status::kDenied)),
        static_cast<unsigned long long>(count(cell, service::Status::kTimeout)),
        cell.result.windows.size(), cell.result.sim_seconds, cell.result.host_seconds,
        cell.evals_per_instrument, cell.queue_visits_per_command,
        static_cast<unsigned long long>(cell.result.event_pushes),
        static_cast<unsigned long long>(cell.result.event_cancels), cell.pushes_per_command,
        cell.cancels_per_command,
        static_cast<unsigned long long>(cell.result.response_timer_cancels),
        i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"determinism\": {\"ran\": %s, \"identical\": %s, \"digests\": [",
               skip_determinism ? "false" : "true", identical ? "true" : "false");
  if (!det.empty()) {
    std::fprintf(f, "\"%016llx\", \"%016llx\"",
                 static_cast<unsigned long long>(sweep.back().result.digest),
                 static_cast<unsigned long long>(det.front().result.digest));
  }
  std::fprintf(f, "]},\n  \"batched\": ");
  if (batch_cells.empty()) {
    std::fprintf(f, "null,\n");
  } else {
    const Cell& cell = batch_cells.front();
    std::fprintf(f,
                 "{\"sessions\": %d, \"session_batch\": %lld, \"sessions_per_sec\": %.1f,"
                 " \"p50_ns\": %lld, \"p99_ns\": %lld, \"commands\": %llu,"
                 " \"shed\": %llu, \"sub_drops\": %llu, \"windows\": %zu,"
                 " \"sim_seconds\": %.6f, \"host_seconds\": %.3f, \"digest\": \"%016llx\"},\n",
                 cell.sessions, static_cast<long long>(session_batch), cell.sessions_per_sec,
                 static_cast<long long>(cell.p50), static_cast<long long>(cell.p99),
                 static_cast<unsigned long long>(cell.result.commands),
                 static_cast<unsigned long long>(cell.result.shed_commands),
                 static_cast<unsigned long long>(cell.result.sub_drops),
                 cell.result.windows.size(), cell.result.sim_seconds,
                 cell.result.host_seconds, static_cast<unsigned long long>(cell.result.digest));
  }
  std::fprintf(f,
               "  \"admission\": {\"windows\": %zu, \"violations\": %zu,"
               " \"at_floor\": %zu}\n}\n",
               windows_total, violations, at_floor);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  checks.push_back({"every session ran its full script (attach..detach)",
                    total_commands == expected_commands});
  checks.push_back({"no command timed out in a healthy run", timeouts == 0});
  checks.push_back({"admission never exceeded the budget (or was at floor)", violations == 0});
  const bool gated = functions == kGateFunctions;
  checks.push_back({gated ? "queue retries re-price only what changed: <= 4 admission "
                            "evaluations per instrument command in every sweep cell"
                          : "queue retries re-price only what changed: admission evaluations "
                            "<= instrument commands + epoch advances queued ones waited "
                            "through, in every sweep cell",
                    std::all_of(sweep.begin(), sweep.end(), [gated](const Cell& cell) {
                      return evals_bounded(cell, gated);
                    })});
  checks.push_back({gated ? "retry passes skip scans that would change nothing: <= 1 queue "
                            "entry visited per command in every sweep cell"
                          : "retry passes skip scans that would change nothing: queue visits "
                            "<= queued requests + their epoch advances + expiry-pass visits, "
                            "in every sweep cell",
                    std::all_of(sweep.begin(), sweep.end(), [gated](const Cell& cell) {
                      return visits_bounded(cell, gated);
                    })});
  checks.push_back({"response timeouts share one watchdog timer: <= 1 event-queue cancel for "
                    "all of a sweep cell's response deadlines",
                    std::all_of(sweep.begin(), sweep.end(), [](const Cell& cell) {
                      return cell.result.response_timer_cancels <= kMaxResponseTimerCancels;
                    })});
  if (!skip_determinism) {
    checks.push_back({"digests bit-identical across two runs of the main cell", identical});
  }
  if (!skip_batch) {
    checks.push_back({"batched drivers answered every session's script",
                      !batch_cells.empty() &&
                          batch_cells.front().result.commands ==
                              static_cast<std::uint64_t>(batch_sessions) *
                                  static_cast<std::uint64_t>(commands + 2)});
  }
  return bench::report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
