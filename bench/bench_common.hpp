// Shared helpers for the paper-reproduction bench binaries.
//
// Every fig7* binary prints the exact series the corresponding figure
// plots (policy x CPU count -> seconds) plus the shape checks DESIGN.md §5
// lists, and exits non-zero if a shape check fails -- so the bench suite
// doubles as a reproduction gate.
#pragma once

#include <bit>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "dynprof/policy.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/table.hpp"

namespace dyntrace::bench {

struct ShapeCheck {
  std::string description;
  bool passed = false;
};

/// A bench binary's main(): runs `body`, and turns any exception -- a
/// dyntrace::Error for a bad flag value or an unreadable input -- into a
/// message and exit code 1.
inline int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}

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

/// --max-cpus: 0 keeps the paper's CPU counts; anything else must be a
/// power of two past the paper's 64-CPU ceiling, so the sweep ends exactly
/// there.
inline void check_max_cpus(int max_cpus) {
  DT_EXPECT(max_cpus == 0 || (max_cpus >= 128 && std::has_single_bit(
                                                     static_cast<unsigned>(max_cpus))),
            "--max-cpus must be 0 or a power of two >= 128 (got ", max_cpus, ")");
}

inline PolicySweep run_policy_sweep(const asci::AppSpec& app, double scale,
                                    std::uint64_t seed, int max_cpus = 0) {
  // --max-cpus extends an MPI app's sweep past its paper ceiling (Launch
  // grows the machine for the cells that need it); an OpenMP app stays
  // within one node, so there the flag has nothing to extend.
  DT_EXPECT(max_cpus == 0 || app.model != asci::AppSpec::Model::kOpenMP,
            "--max-cpus extends MPI sweeps only; ", app.name, " is an OpenMP app");
  asci::AppSpec widened = app;
  if (max_cpus > widened.max_procs) widened.max_procs = max_cpus;
  PolicySweep sweep;
  sweep.cpus = dynprof::cpu_counts_for(widened);
  sweep.policies = dynprof::policies_for(app);
  for (const auto policy : sweep.policies) {
    std::vector<double> row;
    for (const int cpus : sweep.cpus) {
      dynprof::Launch::Options options;
      options.app = &app;
      options.policy = policy;
      options.params.nprocs = cpus;
      options.params.problem_scale = scale;
      options.params.seed = seed;
      row.push_back(dynprof::run_policy(std::move(options)).app_seconds);
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
  /// 0 keeps the app's paper ceiling; a power of two >= 128 extends the
  /// sweep (e.g. 4096) on a machine grown to fit.
  int max_cpus = 0;
  bool csv = false;
};

inline bool parse_fig7_options(int argc, const char* const* argv, const char* name,
                               const char* blurb, Fig7Options* out) {
  CliParser parser(name, blurb);
  parser.option_double("scale", "problem scale factor (default 1.0 = paper size)",
                       &out->scale);
  parser.option_int("seed", "simulation seed", &out->seed);
  parser.option_int("max-cpus",
                    "extend an MPI sweep past the paper's 64-CPU ceiling to this power "
                    "of two >= 128 (e.g. 4096; 0 = paper counts only)",
                    &out->max_cpus);
  parser.flag("csv", "also print CSV series", &out->csv);
  if (!parser.parse(argc, argv)) return false;
  check_max_cpus(out->max_cpus);
  return true;
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
