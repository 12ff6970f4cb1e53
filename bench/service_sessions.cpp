// Multi-tenant control-service bench (DESIGN.md §13): N simulated user
// sessions attach to one shared target job through the ControlService and
// issue instrument/confsync/subscribe/report scripts concurrently.
//
// Reports sessions/sec (host wall clock), p50/p99 command latency (sim
// time), the admission outcome mix, the run-to-run determinism check (a
// rerun of the main cell must reproduce its digests bit for bit), the
// batched-driver
// cell (100k sessions on a few hundred driver coroutines, so memory stays
// flat in session count), and the admission invariant (priced overhead <=
// budget, or at_floor, in every window).  Emits BENCH_service.json;
// shape-check failures exit non-zero, so CI's service-smoke step gates on
// the invariant.
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
  std::fprintf(stderr, ".");
  std::fflush(stderr);
  return cell;
}

std::uint64_t count(const Cell& cell, service::Status status) {
  const auto it = cell.result.status_counts.find(status);
  return it != cell.result.status_counts.end() ? it->second : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t sessions = 10'000;
  std::int64_t ranks = 8;
  std::int64_t functions = 32;
  std::int64_t commands = 4;
  std::int64_t seed = 42;
  std::int64_t batch_sessions = 100'000;
  std::int64_t session_batch = 512;
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
  base.ranks = static_cast<int>(ranks);
  base.functions = static_cast<int>(functions);
  base.commands_per_session = static_cast<int>(commands);
  base.seed = static_cast<std::uint64_t>(seed);

  // --- Part 1: throughput sweep ---------------------------------------------
  std::puts("Part 1: session throughput, one shared job\n");
  std::vector<int> sweep_counts{1'000};
  if (static_cast<int>(sessions) != 1'000) sweep_counts.push_back(static_cast<int>(sessions));
  std::vector<Cell> sweep;
  for (const int n : sweep_counts) sweep.push_back(run_cell(base, n));
  std::fprintf(stderr, "\n");

  TextTable table({"Sessions", "Sessions/s", "p50 ms", "p99 ms", "Admit", "Degrade",
                            "Deny", "Timeout", "Windows", "Sim s"});
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
                   TextTable::num(cell.result.sim_seconds, 3)});
  }
  std::fputs(table.render().c_str(), stdout);

  // --- Part 2: run-to-run determinism ---------------------------------------
  // Rerun the main cell; both runs must agree bit for bit.
  std::vector<Cell> det;
  bool identical = true;
  if (!skip_determinism) {
    std::puts("\nPart 2: bit-identical digests across two runs of the main cell\n");
    const Cell& first = sweep.back();
    det.push_back(run_cell(base, static_cast<int>(sessions)));
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
    batched.session_batch = static_cast<int>(session_batch);
    batch_cells.push_back(run_cell(batched, static_cast<int>(batch_sessions)));
    std::fprintf(stderr, "\n");
    const Cell& cell = batch_cells.front();
    const long long drivers =
        (batch_sessions + session_batch - 1) / (session_batch > 0 ? session_batch : 1);
    TextTable btable({"Sessions", "Batch", "Drivers", "Sessions/s", "p50 ms", "p99 ms",
                      "Shed", "Windows", "Sim s", "Host s"});
    btable.add_row({std::to_string(cell.sessions), std::to_string(session_batch),
                    std::to_string(drivers), TextTable::num(cell.sessions_per_sec, 0),
                    TextTable::num(sim::to_seconds(cell.p50) * 1e3, 3),
                    TextTable::num(sim::to_seconds(cell.p99) * 1e3, 3),
                    std::to_string(cell.result.shed_commands),
                    std::to_string(cell.result.windows.size()),
                    TextTable::num(cell.result.sim_seconds, 3),
                    TextTable::num(cell.result.host_seconds, 2)});
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
        " \"host_seconds\": %.3f}%s\n",
        cell.sessions, cell.sessions_per_sec, static_cast<long long>(cell.p50),
        static_cast<long long>(cell.p99),
        static_cast<unsigned long long>(count(cell, service::Status::kAdmitted)),
        static_cast<unsigned long long>(count(cell, service::Status::kDegraded)),
        static_cast<unsigned long long>(count(cell, service::Status::kDenied)),
        static_cast<unsigned long long>(count(cell, service::Status::kTimeout)),
        cell.result.windows.size(), cell.result.sim_seconds, cell.result.host_seconds,
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
                 " \"shed\": %llu, \"windows\": %zu, \"sim_seconds\": %.6f,"
                 " \"host_seconds\": %.3f},\n",
                 cell.sessions, static_cast<long long>(session_batch), cell.sessions_per_sec,
                 static_cast<long long>(cell.p50), static_cast<long long>(cell.p99),
                 static_cast<unsigned long long>(cell.result.commands),
                 static_cast<unsigned long long>(cell.result.shed_commands),
                 cell.result.windows.size(), cell.result.sim_seconds,
                 cell.result.host_seconds);
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
