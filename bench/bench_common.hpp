// Shared helpers for the paper-reproduction bench binaries.
//
// Every fig7* binary prints the exact series the corresponding figure
// plots (policy x CPU count -> seconds) plus the shape checks DESIGN.md §5
// lists, and exits non-zero if a shape check fails -- so the bench suite
// doubles as a reproduction gate.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dynprof/policy.hpp"
#include "machine/spec.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace dyntrace::bench {

struct ShapeCheck {
  std::string description;
  bool passed = false;
};

inline int report_checks(const std::vector<ShapeCheck>& checks) {
  int failures = 0;
  std::puts("\nshape checks (paper vs reproduction):");
  for (const auto& check : checks) {
    std::printf("  [%s] %s\n", check.passed ? "ok" : "FAIL", check.description.c_str());
    if (!check.passed) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

/// Run every policy of `app` across its paper CPU counts; returns a table
/// whose rows are CPU counts and columns are policies, and fills
/// `results[policy][cpu_index]`.
struct PolicySweep {
  std::vector<int> cpus;
  std::vector<dynprof::Policy> policies;
  // seconds[policy_index][cpu_index]
  std::vector<std::vector<double>> seconds;

  double at(dynprof::Policy policy, int cpu_count) const {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      if (policies[p] != policy) continue;
      for (std::size_t c = 0; c < cpus.size(); ++c) {
        if (cpus[c] == cpu_count) return seconds[p][c];
      }
    }
    return -1;
  }
};

/// A machine spec big enough for `cpus` single-cpu ranks plus a tool node:
/// the paper's IBM Power3 SP (144 nodes) grown node-for-node when a sweep
/// extends past its 1152 CPUs (the --max-cpus 4096 extension).
inline std::optional<machine::MachineSpec> machine_for_cpus(int cpus) {
  machine::MachineSpec spec = machine::ibm_power3_sp();
  const int needed = (cpus + spec.cpus_per_node - 1) / spec.cpus_per_node + 1;
  if (needed <= spec.nodes) return std::nullopt;  // default machine: untouched runs
  spec.nodes = needed;
  spec.name += "-x" + std::to_string(needed);
  return spec;
}

inline PolicySweep run_policy_sweep(const asci::AppSpec& app, double scale,
                                    std::uint64_t seed, int max_cpus = 0) {
  // --max-cpus beyond the app's paper ceiling: sweep a widened copy on a
  // machine grown to fit (results for the paper counts are unchanged --
  // cells only get a bigger machine when they need one).
  asci::AppSpec widened = app;
  if (max_cpus > widened.max_procs) widened.max_procs = max_cpus;
  PolicySweep sweep;
  sweep.cpus = dynprof::cpu_counts_for(widened);
  sweep.policies = dynprof::policies_for(widened);
  for (const auto policy : sweep.policies) {
    std::vector<double> row;
    for (const int cpus : sweep.cpus) {
      dynprof::RunConfig config;
      config.app = &widened;
      config.policy = policy;
      config.nprocs = cpus;
      config.problem_scale = scale;
      config.seed = seed;
      if (widened.model != asci::AppSpec::Model::kOpenMP) {
        config.machine = machine_for_cpus(cpus);
      }
      row.push_back(dynprof::run_policy(config).app_seconds);
      std::fprintf(stderr, ".");
      std::fflush(stderr);
    }
    sweep.seconds.push_back(std::move(row));
  }
  std::fprintf(stderr, "\n");
  return sweep;
}

inline void print_sweep(const char* title, const PolicySweep& sweep) {
  std::printf("%s\n", title);
  std::vector<std::string> headers{"CPUs"};
  for (const auto policy : sweep.policies) headers.emplace_back(to_string(policy));
  TextTable table(std::move(headers));
  for (std::size_t c = 0; c < sweep.cpus.size(); ++c) {
    std::vector<std::string> row{std::to_string(sweep.cpus[c])};
    for (std::size_t p = 0; p < sweep.policies.size(); ++p) {
      row.push_back(TextTable::num(sweep.seconds[p][c], 2));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("(execution time in seconds; Figure 7 metric: post-init main computation)");
}

struct Fig7Options {
  double scale = 1.0;
  std::int64_t seed = 42;
  /// 0 keeps the app's paper ceiling; a larger power of two extends the
  /// sweep (e.g. 4096) on a machine grown to fit.
  std::int64_t max_cpus = 0;
  bool csv = false;
};

inline bool parse_fig7_options(int argc, const char* const* argv, const char* name,
                               const char* blurb, Fig7Options* out) {
  CliParser parser(name, blurb);
  parser.option_double("scale", "problem scale factor (default 1.0 = paper size)",
                       &out->scale);
  parser.option_int("seed", "simulation seed", &out->seed);
  parser.option_int("max-cpus",
                    "extend the sweep past the paper's CPU ceiling (e.g. 4096; "
                    "0 = paper counts only)",
                    &out->max_cpus);
  parser.flag("csv", "also print CSV series", &out->csv);
  return parser.parse(argc, argv);
}

inline void maybe_print_csv(const PolicySweep& sweep, bool csv) {
  if (!csv) return;
  std::vector<std::string> headers{"cpus"};
  for (const auto policy : sweep.policies) headers.emplace_back(to_string(policy));
  TextTable table(std::move(headers));
  for (std::size_t c = 0; c < sweep.cpus.size(); ++c) {
    std::vector<std::string> row{std::to_string(sweep.cpus[c])};
    for (std::size_t p = 0; p < sweep.policies.size(); ++p) {
      row.push_back(TextTable::num(sweep.seconds[p][c], 4));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render_csv().c_str(), stdout);
}

}  // namespace dyntrace::bench
