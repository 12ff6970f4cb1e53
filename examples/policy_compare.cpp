// policy_compare: Table 3 head-to-head on one application.
//
// Runs the chosen ASCI kernel under every instrumentation policy at one
// processor count and reports execution time, overhead vs None, and trace
// volume -- the quantities behind the paper's motivation ("the amount of
// collected data can be impractical") and its Figure 7 conclusions.
//
//     $ ./policy_compare smg98 --cpus 16
#include <cstdio>

#include "dynprof/policy.hpp"
#include "machine/spec.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace dyntrace;

namespace {

/// Rough trace-file size: the VGV record layout is ~24 bytes/event.
double events_to_mb(std::uint64_t events) {
  return static_cast<double>(events) * 24.0 / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string app_name = "smg98";
  int cpus = 16;
  double scale = 1.0;
  std::string machine_profile;

  CliParser parser("policy_compare", "Compare the Table 3 instrumentation policies.");
  parser.positional("app", "application (smg98, sppm, sweep3d, umt98)", &app_name, true)
      .option_int("cpus", "processor count", &cpus)
      .option_double("scale", "problem scale factor", &scale)
      .option_string("machine", "machine profile: builtin name or .ini path", &machine_profile);

  try {
    if (!parser.parse(argc, argv)) return 0;
    const asci::AppSpec* app = asci::find_app(app_name);
    DT_EXPECT(app != nullptr, "unknown application '", app_name, "'");

    std::optional<machine::MachineSpec> machine_spec;
    if (!machine_profile.empty()) machine_spec = machine::load_profile(machine_profile);

    std::printf("%s on %lld CPUs (%s scaling, %zu user functions, subset of %zu)\n\n",
                app->name.c_str(), static_cast<long long>(cpus),
                app->scaling == asci::AppSpec::Scaling::kWeak ? "weak" : "strong",
                app->user_function_count(),
                app->subset.empty() ? app->dynamic_list.size() : app->subset.size());

    TextTable table({"Policy", "time (s)", "vs None", "trace events", "~trace MB",
                     "filtered probes"});
    double none_seconds = 0;

    // Run None first so the ratio column is available for all rows.
    std::vector<dynprof::Policy> order{dynprof::Policy::kNone};
    for (const auto policy : dynprof::policies_for(*app)) {
      if (policy != dynprof::Policy::kNone) order.push_back(policy);
    }

    std::vector<std::pair<dynprof::Policy, dynprof::PolicyResult>> results;
    for (const auto policy : order) {
      dynprof::Launch::Options options;
      options.app = app;
      options.policy = policy;
      options.params.nprocs = cpus;
      options.params.problem_scale = scale;
      options.machine = machine_spec;
      const auto result = dynprof::run_policy(std::move(options));
      if (policy == dynprof::Policy::kNone) none_seconds = result.app_seconds;
      results.emplace_back(policy, result);
      std::fprintf(stderr, ".");
      std::fflush(stderr);
    }
    std::fprintf(stderr, "\n");

    // Present in Table 3 order.
    for (const auto policy : dynprof::policies_for(*app)) {
      for (const auto& [p, r] : results) {
        if (p != policy) continue;
        table.add_row({to_string(p), TextTable::num(r.app_seconds, 2),
                       TextTable::num(r.app_seconds / none_seconds, 2) + "x",
                       str::format("%llu", (unsigned long long)r.trace_events),
                       TextTable::num(events_to_mb(r.trace_events), 1),
                       str::format("%llu", (unsigned long long)r.filtered_events)});
      }
    }
    std::fputs(table.render().c_str(), stdout);

    for (const auto& [p, r] : results) {
      if (p == dynprof::Policy::kDynamic) {
        std::printf(
            "\nDynamic: dynprof needed %.1f s to create+instrument (excluded from the\n"
            "time column, as in the paper; the application is suspended meanwhile).\n",
            r.create_instrument_seconds);
      }
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "policy_compare: %s\n", e.what());
    return 1;
  }
}
