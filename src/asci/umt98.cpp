// Umt98: unstructured-mesh Boltzmann transport, OpenMP (paper Table 2,
// Figure 7d).
//
// 44 user functions, "most of which perform initialization"; the 6-function
// subset carries the transport sweep.  The hot per-(zone,angle) helper calls
// live in a few flux kernels *outside* the subset, giving Full a noticeable
// but moderate overhead and Dynamic a small win over Subset/Full-Off -- the
// paper's Figure 7(d) shape.
//
// Strong scaling on one SMP node (1-8 threads): the input fixes the global
// problem, each thread takes zones/T.  OpenMP threads share one process
// image, which is why dynprof's instrumentation time is flat in Figure 9.
#include <cmath>

#include "asci/app.hpp"
#include "support/strings.hpp"

namespace dyntrace::asci {

namespace {

constexpr int kInitFns = 30;
constexpr int kHotFns = 7;  // flux/accumulation helpers (not in the subset)
constexpr double kTimesteps = 8.0;
// Total hot helper calls per timestep across the whole team (strong
// scaling: divided over threads).
constexpr std::int64_t kHotCallsPerStep = 1'200'000;
constexpr double kHotWorkNs = 30'000;
// Serial per-step work by the master outside the parallel region.
constexpr double kSerialStepWorkNs = 0.9e9;

const char* const kCore[6] = {"snswp3d", "snflwxyz", "snneed",
                              "snmoments", "snqq", "sntal"};

std::shared_ptr<const image::SymbolTable> build_symbols() {
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main", "umt98.f");
  symbols->add("VT_init", "libvt");  // statically inserted at main() by Guide
  for (const char* name : kCore) symbols->add(name, "umt_transport.f");
  for (int i = 0; i < kHotFns; ++i) {
    symbols->add(str::format("umt_flux_%02d", i), "umt_flux.f");
  }
  for (int i = 0; i < kInitFns; ++i) {
    symbols->add(str::format("umt_init_%02d", i), "umt_setup.f");
  }
  return symbols;
}

/// The functions the body calls, resolved when the spec is built.
struct Umt98Fns {
  image::FunctionId core[6];            ///< kCore, same order
  image::FunctionId snmoments, snqq, sntal;
  std::vector<image::FunctionId> flux;  ///< kHotFns hot helpers
  std::vector<image::FunctionId> init;  ///< kInitFns setup routines
};

std::shared_ptr<const Umt98Fns> resolve_fns(const AppSpec& spec) {
  auto fns = std::make_shared<Umt98Fns>();
  for (int i = 0; i < 6; ++i) fns->core[i] = spec.fid(kCore[i]);
  fns->snmoments = spec.fid("snmoments");
  fns->snqq = spec.fid("snqq");
  fns->sntal = spec.fid("sntal");
  for (int i = 0; i < kHotFns; ++i) {
    fns->flux.push_back(spec.fid(str::format("umt_flux_%02d", i)));
  }
  for (int i = 0; i < kInitFns; ++i) {
    fns->init.push_back(spec.fid(str::format("umt_init_%02d", i)));
  }
  return fns;
}

sim::Coro<void> body(AppContext& ctx, proc::SimThread& thread,
                     std::shared_ptr<const Umt98Fns> fns) {
  const int t_count = ctx.nprocs();  // OpenMP threads
  Rng& rng = ctx.rng();
  omp::OmpRuntime* omp = ctx.omp();
  DT_ASSERT(omp != nullptr, "umt98 requires the OpenMP runtime");

  // --- serial initialization (most of the 44 functions live here) ---------
  for (const image::FunctionId fn : fns->init) {
    co_await ctx.leaf(thread, fn, sim::nanoseconds(rng.normal_at_least(120e6, 25e6, 5e6)));
  }

  const std::int64_t steps = ctx.iters(kTimesteps);
  const std::int64_t hot_calls_per_thread = kHotCallsPerStep / t_count;

  for (std::int64_t step = 0; step < steps; ++step) {
    co_await ctx.leaf(thread, fns->snqq,
                      sim::nanoseconds(rng.normal_at_least(kSerialStepWorkNs * 0.1,
                                                           8e6, 1e6)));
    // The transport sweep: one parallel region per timestep.
    co_await omp->parallel(
        thread,
        [&ctx, &fns, step, hot_calls_per_thread](
            proc::SimThread& worker, int tnum, int nthreads) -> sim::Coro<void> {
          // Each thread runs the core sweep kernels over its zone share;
          // the kernels call the hot flux helpers per (zone, angle).
          for (int c = 0; c < 3; ++c) {
            const image::FunctionId core = fns->core[(c + static_cast<int>(step)) % 6];
            co_await ctx.call(
                worker, core,
                [&ctx, &fns, tnum, c, step, hot_calls_per_thread](proc::SimThread& t)
                    -> sim::Coro<void> {
                  co_await t.compute(sim::microseconds(300));
                  const int hot = (c * 2 + tnum + static_cast<int>(step)) % kHotFns;
                  co_await ctx.leaf_repeat(
                      t, fns->flux[static_cast<std::size_t>(hot)], hot_calls_per_thread / 3,
                      sim::nanoseconds(kHotWorkNs));
                });
          }
          // Worksharing loop: angular moment accumulation.
          co_await ctx.omp()->for_each(
              worker, tnum, /*iterations=*/96, omp::Schedule::kDynamic, /*chunk=*/4,
              [&ctx, &fns](proc::SimThread& t, std::int64_t) -> sim::Coro<void> {
                co_await ctx.leaf(t, fns->snmoments, sim::microseconds(900));
              });
          (void)nthreads;
        });
    // Serial convergence bookkeeping.
    co_await ctx.leaf(thread, fns->sntal,
                      sim::nanoseconds(rng.normal_at_least(kSerialStepWorkNs * 0.05,
                                                           4e6, 1e6)));
  }
}

}  // namespace

const AppSpec& umt98() {
  static const AppSpec spec = [] {
    AppSpec s;
    s.name = "umt98";
    s.language = "OMP/F77";
    s.description = "The Boltzmann transport equation";
    s.model = AppSpec::Model::kOpenMP;
    s.scaling = AppSpec::Scaling::kStrong;
    s.min_procs = 1;
    s.max_procs = 8;  // one SMP node
    s.symbols = build_symbols();
    s.subset.assign(std::begin(kCore), std::end(kCore));
    s.dynamic_list = s.subset;
    s.body = [fns = resolve_fns(s)](AppContext& ctx, proc::SimThread& thread) {
      return body(ctx, thread, fns);
    };
    return s;
  }();
  return spec;
}

}  // namespace dyntrace::asci
