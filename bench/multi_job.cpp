// Multi-job scenario bench (DESIGN.md §15): heterogeneous jobs -- a
// Dynamic kernel job, an Adaptive kernel job sharing its nodes, and a
// replayed-trace job -- on one simulated cluster, run twice.  Emits
// BENCH_multijob.json and exits non-zero unless both runs' scenario
// digests are bit-identical (the run-to-run determinism gate CI relies
// on).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dynprof/multi_job.hpp"
#include "replay/app.hpp"

namespace {

using namespace dyntrace;

/// The replayed job's trace, found through the source tree the bench was
/// built from, whatever directory it runs in.
const char* const kReplayTrace = DYNTRACE_SOURCE_DIR "/examples/replay/ring.trace";

struct ScenarioRun {
  double wall_s = 0;
  dynprof::MultiJobResult result;
};

ScenarioRun run_scenario(int ranks_per_job, double scale, const replay::ReplayApp& replay_app) {
  dynprof::MultiJobOptions options;

  dynprof::MultiJobOptions::Job front;
  front.app = asci::find_app("sppm");
  front.name = "front";
  front.params.nprocs = ranks_per_job;
  front.params.problem_scale = scale;
  front.policy = dynprof::Policy::kDynamic;
  front.first_node = 0;
  front.first_cpu = 0;
  options.jobs.push_back(front);

  dynprof::MultiJobOptions::Job back;
  back.app = asci::find_app("sweep3d");
  back.name = "back";
  back.params.nprocs = ranks_per_job;
  back.params.problem_scale = scale;
  back.policy = dynprof::Policy::kAdaptive;
  back.first_node = 0;
  back.first_cpu = 4;  // shares the front job's nodes
  options.jobs.push_back(back);

  dynprof::MultiJobOptions::Job recorded;
  recorded.app = &replay_app.spec();
  recorded.name = "recorded";
  recorded.params.nprocs = replay_app.spec().min_procs;
  recorded.policy = dynprof::Policy::kDynamic;
  recorded.first_node = (ranks_per_job + 3) / 4;  // above the shared span
  recorded.first_cpu = 0;
  options.jobs.push_back(recorded);

  ScenarioRun run;
  const auto start = std::chrono::steady_clock::now();
  dynprof::MultiJobLaunch launch(std::move(options));
  run.result = launch.run_to_completion();
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                   .count();
  return run;
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace dyntrace::bench;

  int ranks = 16;
  double scale = 0.15;
  std::string json_path = "BENCH_multijob.json";
  CliParser parser("multi_job",
                   "Heterogeneous multi-job cluster scenario: shared nodes, per-job "
                   "tools, a replayed-trace job, and the run-to-run determinism "
                   "gate");
  parser.option_int("ranks", "MPI ranks per kernel job", &ranks)
      .option_double("scale", "problem scale factor", &scale)
      .option_string("json", "write the machine-readable results here", &json_path);
  if (!parser.parse(argc, argv)) return 0;

  // A missing trace fails closed: load_app throws naming the path.
  const std::shared_ptr<replay::ReplayApp> replay_app = replay::load_app(kReplayTrace);

  std::vector<ScenarioRun> runs;
  for (int rep = 0; rep < 2; ++rep) {
    runs.push_back(run_scenario(ranks, scale, *replay_app));
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");

  const ScenarioRun& seq = runs.front();
  std::printf("multi-job scenario: %zu job(s), %lld rank(s) per kernel job\n\n",
              seq.result.jobs.size(), static_cast<long long>(ranks));
  TextTable jobs_table({"Job", "Policy", "Ranks", "App (s)", "Create+instr (s)",
                        "Trace events"});
  for (const auto& job : seq.result.jobs) {
    jobs_table.add_row({job.job, dynprof::to_string(job.policy),
                        std::to_string(job.nprocs), TextTable::num(job.app_seconds, 3),
                        TextTable::num(job.create_instrument_seconds, 3),
                        std::to_string(job.trace_events)});
  }
  std::fputs(jobs_table.render().c_str(), stdout);

  bool identical = true;
  TextTable runs_table({"Run", "Wall (s)", "Combined digest", "Identical"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScenarioRun& run = runs[i];
    const bool same = run.result.combined_digest == seq.result.combined_digest;
    identical = identical && same;
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(run.result.combined_digest));
    runs_table.add_row({std::to_string(i + 1), TextTable::num(run.wall_s, 3), digest,
                        same ? "yes" : "NO"});
  }
  std::fputs(runs_table.render().c_str(), stdout);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"ranks_per_job\": %lld,\n  \"scale\": %g,\n",
               static_cast<long long>(ranks), scale);
  std::fprintf(f, "  \"jobs\": [\n");
  for (std::size_t j = 0; j < seq.result.jobs.size(); ++j) {
    const auto& job = seq.result.jobs[j];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"policy\": \"%s\", \"ranks\": %d, "
                 "\"app_seconds\": %.6f, \"create_instrument_seconds\": %.6f, "
                 "\"trace_events\": %llu, \"trace_digest\": \"%016llx\"}%s\n",
                 job.job.c_str(), dynprof::to_string(job.policy), job.nprocs,
                 job.app_seconds, job.create_instrument_seconds,
                 static_cast<unsigned long long>(job.trace_events),
                 static_cast<unsigned long long>(job.trace_digest),
                 j + 1 < seq.result.jobs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(f,
                 "    {\"run\": %zu, \"wall_s\": %.3f, "
                 "\"combined_digest\": \"%016llx\"}%s\n",
                 i + 1, runs[i].wall_s,
                 static_cast<unsigned long long>(runs[i].result.combined_digest),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"identical\": %s\n}\n", identical ? "true" : "false");
  std::fclose(f);
  std::printf("\nresults written to %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  checks.push_back({"scenario digest bit-identical across two runs", identical});
  checks.push_back({"every job produced trace events",
                    [&] {
                      for (const auto& job : seq.result.jobs) {
                        if (job.trace_events == 0) return false;
                      }
                      return true;
                    }()});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
