// Smg98: semicoarsening multigrid solver (paper Table 2, Figure 7a).
//
// Structure chosen to reproduce the paper's observations:
//   * 199 user functions; the 62-function solver subset contains the
//     coarse-grained V-cycle routines (moderate call counts, large bodies);
//   * the remaining functions are setup code (called once) plus tiny
//     box-loop/index helpers called at enormous frequency -- these are what
//     make the Full policy >7x slower at 64 CPUs, and what the Subset /
//     Full-Off configuration files deactivate;
//   * weak scaling: per-rank grid fixed, V-cycle count grows with log2(P)
//     (coarse-grid work and convergence degrade as the global problem
//     grows), so execution time increases with processor count.
#include <cmath>

#include "asci/app.hpp"
#include "support/strings.hpp"

namespace dyntrace::asci {

namespace {

constexpr int kLevels = 6;
constexpr int kSolverFns = 62;        // the subset
constexpr int kSetupFns = 36;         // called once each
constexpr int kUtilFns = 100;         // hot box-loop helpers
constexpr int kUtilKindsPerLevel = 6; // distinct helpers touched per level

// Per-(iteration, level-0) call count of one hot helper; halves per level.
// Calibrated with kUtilWorkNs and kSolverWorkNs so that Full/None >= 7 at
// 64 CPUs (see DESIGN.md §5 and bench/fig7a).
constexpr std::int64_t kUtilCallsBase = 940'000;
// Mean work of one hot helper call (tiny: index math + a few flops).
constexpr double kUtilWorkNs = 380;
// Mean work of one solver-routine invocation at level 0; halves per level.
constexpr double kSolverWorkNs = 22.0e6;
constexpr int kSolverCallsPerLevel = 10;

constexpr std::int64_t kHaloBytes = 256 * 1024;

std::shared_ptr<const image::SymbolTable> build_symbols() {
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main", "smg98.c");
  symbols->add("MPI_Init", "libmpi");
  symbols->add("MPI_Finalize", "libmpi");
  // Solver subset: a few canonical hypre names plus generated kernels.
  symbols->add("hypre_SMGSolve", "smg_solve.c");
  symbols->add("hypre_SMGRelax", "smg_relax.c");
  symbols->add("hypre_SMGResidual", "smg_residual.c");
  symbols->add("hypre_SMGRestrict", "smg_restrict.c");
  symbols->add("hypre_SMGIntAdd", "smg_intadd.c");
  symbols->add("hypre_CyclicReduction", "cyclic_reduction.c");
  for (int i = 6; i < kSolverFns; ++i) {
    symbols->add(str::format("hypre_SMGCycle_%02d", i), "smg_cycle.c");
  }
  for (int i = 0; i < kSetupFns; ++i) {
    symbols->add(str::format("hypre_smg_setup_%02d", i), "smg_setup.c");
  }
  for (int i = 0; i < kUtilFns; ++i) {
    symbols->add(str::format("hypre_BoxLoop_%03d", i), "box_algebra.c");
  }
  return symbols;
}

/// The functions the body calls, resolved when the spec is built.
struct Smg98Fns {
  std::vector<image::FunctionId> setup;     ///< kSetupFns, called once each
  std::vector<image::FunctionId> box_loop;  ///< kUtilFns hot helpers
  std::vector<image::FunctionId> solvers;   ///< the subset, in symbol order
  image::FunctionId residual = image::kInvalidFunction;
};

std::vector<std::string> solver_names(const image::SymbolTable& symbols) {
  std::vector<std::string> out;
  for (const auto& fn : symbols.all()) {
    if (str::starts_with(fn.name, "hypre_SMG") || fn.name == "hypre_CyclicReduction") {
      out.push_back(fn.name);
    }
  }
  return out;
}

std::shared_ptr<const Smg98Fns> resolve_fns(const AppSpec& spec) {
  auto fns = std::make_shared<Smg98Fns>();
  for (int i = 0; i < kSetupFns; ++i) {
    fns->setup.push_back(spec.fid(str::format("hypre_smg_setup_%02d", i)));
  }
  for (int i = 0; i < kUtilFns; ++i) {
    fns->box_loop.push_back(spec.fid(str::format("hypre_BoxLoop_%03d", i)));
  }
  for (const auto& name : spec.subset) fns->solvers.push_back(spec.fid(name));
  fns->residual = spec.fid("hypre_SMGResidual");
  return fns;
}

sim::Coro<void> body(AppContext& ctx, proc::SimThread& thread,
                     std::shared_ptr<const Smg98Fns> fns) {
  const int p = ctx.nprocs();
  const int rank = ctx.rank();
  Rng& rng = ctx.rng();
  mpi::Rank* mpi = ctx.mpi();

  // --- setup phase: every setup routine runs once -------------------------
  for (const image::FunctionId fn : fns->setup) {
    co_await ctx.leaf(thread, fn, sim::nanoseconds(rng.normal_at_least(9.0e6, 2.0e6, 1.0e6)));
  }
  if (mpi != nullptr) co_await mpi->allreduce(thread, 8);

  // --- V-cycles -------------------------------------------------------------
  const double log_p = p > 1 ? std::log2(static_cast<double>(p)) : 0.0;
  const std::int64_t cycles = ctx.iters(6.0 + log_p);
  const std::vector<image::FunctionId>& solvers = fns->solvers;

  for (std::int64_t it = 0; it < cycles; ++it) {
    for (int level = 0; level < kLevels; ++level) {
      // Hot box-loop helpers: the bulk of all function calls.
      for (int k = 0; k < kUtilKindsPerLevel; ++k) {
        const int util = (level * kUtilKindsPerLevel + k +
                          static_cast<int>(it) * 7) % kUtilFns;
        const std::int64_t count = kUtilCallsBase >> level;
        const auto work =
            sim::nanoseconds(rng.normal_at_least(kUtilWorkNs, kUtilWorkNs * 0.15, 80));
        co_await ctx.leaf_repeat(thread, fns->box_loop[static_cast<std::size_t>(util)], count,
                                 work);
        // Natural safe point: between box-loop batches, outside any
        // communication (offered on every rank at the same spot).
        co_await ctx.safe_point(thread);
      }
      // Coarse-grained solver routines (the instrumented subset).
      for (int k = 0; k < kSolverCallsPerLevel; ++k) {
        const image::FunctionId solver = solvers[(level * kSolverCallsPerLevel + k +
                                                  static_cast<int>(it) * 3) % solvers.size()];
        const double mean = kSolverWorkNs / static_cast<double>(1 << level);
        co_await ctx.leaf(thread, solver,
                          sim::nanoseconds(rng.normal_at_least(mean, mean * 0.1, 1000)));
      }
      // Halo exchange with ring neighbours (surface shrinks with level).
      if (mpi != nullptr && p > 1) {
        const std::int64_t bytes = kHaloBytes >> level;
        const int right = (rank + 1) % p;
        const int left = (rank - 1 + p) % p;
        const int tag = 100 + level;
        co_await mpi->sendrecv(thread, right, tag, bytes, left, tag, nullptr);
      }
    }
    // Convergence check.
    co_await ctx.leaf(thread, fns->residual,
                      sim::nanoseconds(rng.normal_at_least(12.0e6, 1.0e6, 1.0e6)));
    if (mpi != nullptr) co_await mpi->allreduce(thread, 16);
  }
}

}  // namespace

const AppSpec& smg98() {
  static const AppSpec spec = [] {
    AppSpec s;
    s.name = "smg98";
    s.language = "MPI/C";
    s.description = "A multigrid solver";
    s.model = AppSpec::Model::kMpi;
    s.scaling = AppSpec::Scaling::kWeak;
    s.min_procs = 1;
    s.max_procs = 64;
    s.symbols = build_symbols();
    s.subset = solver_names(*s.symbols);
    s.dynamic_list = s.subset;
    s.body = [fns = resolve_fns(s)](AppContext& ctx, proc::SimThread& thread) {
      return body(ctx, thread, fns);
    };
    return s;
  }();
  return spec;
}

}  // namespace dyntrace::asci
