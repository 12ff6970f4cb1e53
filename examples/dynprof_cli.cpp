// dynprof_cli: the paper's instrumenter as a command-line tool (§3.3).
//
// Mirrors the invocation described in the paper:
//
//     dynprof <stdin> <stdout> <timefile> <executable> <args> <poe args>
//
// adapted to the simulated environment: the target "executable" is one of
// the built-in ASCI kernels, commands come from a script file or stdin,
// and the timefile receives dynprof's internal timings.
//
//     $ ./dynprof_cli sppm --cpus 8 --script run.dynprof --timefile t.txt
//     $ echo "if subset
//             start
//             quit" | ./dynprof_cli sweep3d --cpus 4
//
// The name "subset" in insert-file refers to the application's built-in
// important-function list (Table 2); "all" selects every user function.
// Every policy runs through one dynprof::PolicyRun, so every output flag
// works under every policy; a flag with nothing to act on is an error.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/profile.hpp"
#include "analysis/report.hpp"
#include "analysis/timeline.hpp"
#include "dynprof/policy.hpp"
#include "dynprof/tool.hpp"
#include "fault/injector.hpp"
#include "machine/spec.hpp"
#include "replay/app.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "telemetry/json.hpp"

using namespace dyntrace;

namespace {

std::string slurp_file(const std::string& path) {
  std::ifstream in(path);
  DT_EXPECT(in.good(), "cannot open '", path, "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// `dynprof_cli report <stats.json>`: render the flat stats JSON exported by
/// --telemetry-stats back as aligned tables.
int run_report(const std::string& path) {
  const telemetry::JsonValue stats = telemetry::parse_json(slurp_file(path));
  std::printf("telemetry stats from %s (level: %s)\n\n", path.c_str(),
              stats.at("level").as_string().c_str());

  TextTable counters({"counter", "value"});
  for (const auto& [name, value] : stats.at("counters").as_object()) {
    counters.add_row({name, str::format("%lld", static_cast<long long>(value.as_int()))});
  }
  for (const auto& [name, value] : stats.at("gauges").as_object()) {
    counters.add_row({name, str::format("%lld", static_cast<long long>(value.as_int()))});
  }
  std::printf("%s\n", counters.render().c_str());

  const auto& histograms = stats.at("histograms").as_object();
  if (!histograms.empty()) {
    TextTable table({"histogram", "count", "sum", "mean", "p-buckets (lower-bound: count)"});
    for (const auto& [name, hist] : histograms) {
      const double count = hist.at("count").as_number();
      const double sum = hist.at("sum").as_number();
      std::string buckets;
      for (const auto& pair : hist.at("buckets").as_array()) {
        const auto& kv = pair.as_array();
        if (!buckets.empty()) buckets += "  ";
        buckets += str::format("%lld: %lld", static_cast<long long>(kv[0].as_int()),
                               static_cast<long long>(kv[1].as_int()));
      }
      table.add_row({name, TextTable::num(count, 0), TextTable::num(sum, 0),
                     count > 0 ? TextTable::num(sum / count, 1) : "-", buckets});
    }
    std::printf("%s\n", table.render().c_str());
  }

  const auto& keyed = stats.at("keyed").as_object();
  for (const auto& [name, counts] : keyed) {
    TextTable table({name + " (key)", "count"});
    for (const auto& [key, value] : counts.as_object()) {
      table.add_row({key, str::format("%lld", static_cast<long long>(value.as_int()))});
    }
    std::printf("%s\n", table.render().c_str());
  }
  return 0;
}

/// A target that names a trace file rather than a built-in kernel: any
/// path-like token, or anything ending in .trace.
bool is_trace_target(const std::string& name) {
  if (name.find('/') != std::string::npos) return true;
  return name.size() > 6 && name.substr(name.size() - 6) == ".trace";
}

}  // namespace

int main(int argc, char** argv) {
  std::string app_name;
  int cpus = 2;
  double scale = 0.5;
  std::string machine_profile;
  std::string script_path;
  std::string timefile_path;
  std::string tracefile_path;
  std::string tracebin_path;
  std::int64_t trace_spill_bytes = 0;
  std::string fault_plan_path;
  std::int64_t fault_seed = -1;
  bool show_timeline = false;
  bool show_report = false;
  bool replay_strict = false;
  std::string policy_name = "dynamic";
  std::string subcommand_arg;
  std::string telemetry_level = "off";
  std::string telemetry_stats_path;
  std::string telemetry_trace_path;

  CliParser parser("dynprof_cli",
                   "Dynamically instrument an ASCI kernel application (paper §3.3). "
                   "Apps: smg98, sppm, sweep3d, umt98, or a recorded-trace path "
                   "(*.trace; see docs/TRACE_REPLAY.md). "
                   "Subcommand: 'report <stats.json>' renders exported telemetry stats.");
  parser.positional("app", "target application, trace path, or the 'report' subcommand",
                    &app_name)
      .positional("arg", "subcommand argument (report: stats JSON path)", &subcommand_arg,
                  /*optional=*/true)
      .option_int("cpus", "processors (MPI ranks / OpenMP threads)", &cpus)
      .option_double("scale", "problem scale factor", &scale)
      .option_string("script",
                     "command script (dynamic: default reads stdin; adaptive: default "
                     "inserts 'all')",
                     &script_path)
      .option_string("timefile", "write dynprof internal timings here", &timefile_path)
      .option_string("trace", "write the VGV trace file here", &tracefile_path)
      .option_string("trace-bin", "write the compact binary trace here", &tracebin_path)
      .option_int("trace-spill-bytes",
                  "per-shard byte budget before sorted runs spill to disk (0 = "
                  "keep shards in memory)",
                  &trace_spill_bytes)
      .option_string("fault-plan", "inject faults from this plan file (see configs/)",
                     &fault_plan_path)
      .option_int("fault-seed", "override the plan's seed", &fault_seed)
      .option_string("telemetry", "self-telemetry level: off | counters | spans",
                     &telemetry_level)
      .option_string("telemetry-stats", "write the run's telemetry stats JSON here",
                     &telemetry_stats_path)
      .option_string("telemetry-trace",
                     "write Chrome trace-event JSON here (Perfetto loadable; needs "
                     "--telemetry=spans)",
                     &telemetry_trace_path)
      .option_string("policy",
                     "instrumentation policy: dynamic (script-driven; the default) | "
                     "none | full | full-off | subset | adaptive",
                     &policy_name)
      .flag("replay-strict",
            "reject recognized-but-unreplayed trace verbs instead of skip-counting",
            &replay_strict)
      .flag("timeline", "print the postmortem time-line", &show_timeline)
      .flag("report", "print the full summary report (matrix, balance, node health)",
            &show_report)
      .option_string("machine", "machine profile: builtin name or .ini path", &machine_profile);

  try {
    if (!parser.parse(argc, argv)) return 0;

    if (app_name == "report") {
      DT_EXPECT(!subcommand_arg.empty(), "usage: dynprof_cli report <stats.json>");
      // Every option is a run flag, and report runs nothing.
      DT_EXPECT(parser.given().empty(), "report takes no run flags (got --",
                str::join(parser.given(), ", --"), ")");
      return run_report(subcommand_arg);
    }

    DT_EXPECT(subcommand_arg.empty(), "unexpected argument '", subcommand_arg,
              "' (only the 'report' subcommand takes one)");

    std::shared_ptr<replay::ReplayApp> replay_app;
    const asci::AppSpec* app = nullptr;
    if (is_trace_target(app_name)) {
      replay::ParseOptions replay_options;
      replay_options.strict = replay_strict;
      replay_app = replay::load_app(app_name, replay_options);
      app = &replay_app->spec();
      cpus = app->min_procs;  // a trace pins its rank count
      std::printf("replaying %s: %s\n", app_name.c_str(), app->description.c_str());
      const auto& trace = replay_app->trace();
      if (trace.skipped_events > 0) {
        std::string verbs;
        for (const auto& verb : trace.skipped_verbs) {
          if (!verbs.empty()) verbs += ", ";
          verbs += verb;
        }
        std::printf("replay: skipped %llu unreplayed event(s) (%s)\n",
                    static_cast<unsigned long long>(trace.skipped_events), verbs.c_str());
      }
    } else {
      app = asci::find_app(app_name);
      DT_EXPECT(app != nullptr, "unknown application '", app_name,
                "' (smg98, sppm, sweep3d, umt98, or a trace path)");
    }

    const dynprof::Policy policy = dynprof::policy_from_string(policy_name);
    const bool with_tool =
        policy == dynprof::Policy::kDynamic || policy == dynprof::Policy::kAdaptive;
    DT_EXPECT(with_tool || script_path.empty(),
              "--script needs a dynprof tool (--policy dynamic or adaptive)");
    DT_EXPECT(with_tool || timefile_path.empty(),
              "--timefile needs a dynprof tool (--policy dynamic or adaptive)");
    DT_EXPECT(fault_seed < 0 || !fault_plan_path.empty(), "--fault-seed needs --fault-plan");
    DT_EXPECT(!replay_strict || replay_app != nullptr, "--replay-strict needs a trace target");
    DT_EXPECT(trace_spill_bytes >= 0, "--trace-spill-bytes must be >= 0");
    const telemetry::Level level = telemetry::level_from_string(telemetry_level);
    DT_EXPECT(telemetry_trace_path.empty() || level == telemetry::Level::kSpans,
              "--telemetry-trace needs --telemetry=spans");

    // Dynamic reads its script from --script or stdin; Adaptive runs the
    // default "insert-file all" script unless --script names one.
    dynprof::Arming arming;
    if (!script_path.empty()) {
      arming.script = slurp_file(script_path);
    } else if (policy == dynprof::Policy::kDynamic) {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      arming.script = ss.str();
    }
    if (policy == dynprof::Policy::kDynamic || !arming.script.empty()) {
      DT_EXPECT(!dynprof::parse_script(arming.script).empty(),
                "empty command script (need at least 'start')");
    }

    dynprof::Launch::Options options;
    options.app = app;
    options.policy = policy;
    options.params.nprocs = cpus;
    options.params.problem_scale = scale;
    if (!machine_profile.empty()) options.machine = machine::load_profile(machine_profile);
    if (!fault_plan_path.empty()) {
      fault::FaultPlan plan = fault::FaultPlan::load(fault_plan_path);
      if (fault_seed >= 0) plan.seed = static_cast<std::uint64_t>(fault_seed);
      options.fault = std::make_shared<fault::FaultInjector>(std::move(plan));
    }
    options.telemetry_level = level;
    options.trace_spill_bytes = static_cast<std::size_t>(trace_spill_bytes);

    dynprof::PolicyRun run(std::move(options), std::move(arming));
    const dynprof::PolicyResult r = run.run();
    dynprof::Launch& launch = run.launch();
    dynprof::DynprofTool* tool = run.tool();

    if (policy == dynprof::Policy::kDynamic) {
      std::printf("application '%s' finished at t=%.3f s (main computation %.3f s)\n",
                  app->name.c_str(), sim::to_seconds(launch.job().finish_time()),
                  sim::to_seconds(launch.job().finish_time() - launch.init_complete_time()));
      std::printf("create+instrument time: %.3f s; %zu function(s) instrumented\n",
                  r.create_instrument_seconds, tool->instrumented_function_count());
    } else {
      std::printf("application '%s' under policy %s on %d cpu(s):\n", app->name.c_str(),
                  dynprof::to_string(policy), r.nprocs);
      std::printf("  main computation %.3f s (total %.3f s)\n", r.app_seconds,
                  r.total_seconds);
      if (r.create_instrument_seconds > 0) {
        std::printf("  create+instrument time: %.3f s\n", r.create_instrument_seconds);
      }
      std::printf("  trace events: %llu (filtered %llu)\n",
                  static_cast<unsigned long long>(r.trace_events),
                  static_cast<unsigned long long>(r.filtered_events));
      std::printf("  trace digest %016llx  stats digest %016llx\n",
                  static_cast<unsigned long long>(r.trace_digest),
                  static_cast<unsigned long long>(r.stats_digest));
    }

    if (launch.options().fault != nullptr) {
      const fault::RunReport& report = launch.options().fault->report();
      if (report.empty()) {
        std::printf("fault report: no faults fired\n");
      } else {
        std::printf("fault report (%zu event(s)):\n%s", report.size(), report.render().c_str());
      }
      const auto salvage = launch.trace()->salvage_stats();
      if (salvage.torn_shards > 0) {
        std::printf("trace salvage: %llu torn shard(s), %llu record(s) recovered, "
                    "%llu lost\n",
                    static_cast<unsigned long long>(salvage.torn_shards),
                    static_cast<unsigned long long>(salvage.salvaged_records),
                    static_cast<unsigned long long>(salvage.lost_records));
      }
    }

    if (!timefile_path.empty()) {
      std::ofstream out(timefile_path);
      out << tool->timefile_text();
      std::printf("timefile written to %s\n", timefile_path.c_str());
    } else if (policy == dynprof::Policy::kDynamic) {
      std::printf("\n%s", tool->timefile_text().c_str());
    }

    if (!tracefile_path.empty()) {
      launch.trace()->write(tracefile_path);
      std::printf("trace (%zu events) written to %s\n", launch.trace()->size(),
                  tracefile_path.c_str());
    }
    if (!tracebin_path.empty()) {
      launch.trace()->write_binary(tracebin_path);
      std::printf("binary trace (%zu events) written to %s\n", launch.trace()->size(),
                  tracebin_path.c_str());
    }

    const telemetry::Registry& registry = launch.telemetry_registry();
    if (!telemetry_stats_path.empty()) {
      std::ofstream out(telemetry_stats_path);
      out << registry.stats_json();
      std::printf("telemetry stats written to %s (render: dynprof_cli report %s)\n",
                  telemetry_stats_path.c_str(), telemetry_stats_path.c_str());
    }
    if (!telemetry_trace_path.empty()) {
      std::ofstream out(telemetry_trace_path);
      out << registry.chrome_trace_json();
      std::printf("span trace (%zu event(s)) written to %s -- load it at "
                  "https://ui.perfetto.dev\n",
                  registry.span_event_count(), telemetry_trace_path.c_str());
    }

    // The dynamic policy's default view adds the trace's top functions.
    if (show_report) {
      std::printf("\n%s", analysis::summary_report(*launch.trace(), app->symbols.get()).c_str());
      // Dynamic and Adaptive runs talk to the DPCL daemons: their health.
      if (tool != nullptr && tool->application() != nullptr) {
        std::printf("\n%s", analysis::render_health(tool->application()->health()).c_str());
      }
    } else if (policy == dynprof::Policy::kDynamic) {
      analysis::TraceAnalyzer analyzer(*launch.trace());
      std::printf("\ntop functions:\n%s",
                  analyzer.top_functions_table(app->symbols.get(), 10).c_str());
    }
    if (show_timeline) {
      std::printf("\n%s", analysis::render_timeline(*launch.trace()).c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "dynprof_cli: %s\n", e.what());
    return 1;
  }
}
