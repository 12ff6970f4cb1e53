// Sweep3d: Sn neutron-transport wavefront sweep (paper Table 2, Figure 7c).
//
// 21 user functions, all coarse-grained: a handful of sweep kernels invoked
// ~a hundred times per rank with large bodies.  Instrumentation overhead is
// therefore negligible under *every* policy -- Figure 7(c)'s flat spread --
// and the paper instruments all 21 functions in the Dynamic version.
//
// Strong scaling: the global grid is fixed (the input specifies the global
// problem size), so per-rank work ~ 1/P plus pipeline fill, and execution
// time *decreases* with processor count.  The MPI version does not run on a
// single process (min_procs = 2), as in the paper.
#include <cmath>

#include "asci/app.hpp"
#include "support/strings.hpp"

namespace dyntrace::asci {

namespace {

constexpr int kOctants = 8;
// Total sweep work across all ranks and timesteps (strong scaling).
constexpr double kTotalWorkNs = 480.0e9;
constexpr double kTimesteps = 12.0;
// Each rank's per-octant block is pipelined in k-plane chunks: downstream
// ranks start after one chunk, not after the whole block -- without this
// the wavefront would serialise and the code would not strong-scale.
constexpr int kPipelineChunks = 16;
constexpr std::int64_t kAngleBlockBytes = 96 * 1024 / kPipelineChunks;

std::shared_ptr<const image::SymbolTable> build_symbols() {
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main", "driver.f");
  symbols->add("MPI_Init", "libmpi");
  symbols->add("MPI_Finalize", "libmpi");
  // 20 further user functions (21 with main).
  symbols->add("inner", "inner.f");
  symbols->add("outer", "outer.f");
  symbols->add("sweep", "sweep.f");
  symbols->add("source", "source.f");
  symbols->add("flux_err", "flux_err.f");
  symbols->add("initialize", "initialize.f");
  symbols->add("decomp", "decomp.f");
  symbols->add("read_input", "read_input.f");
  symbols->add("task_init", "task_init.f");
  symbols->add("initxs", "initxs.f");
  symbols->add("initsnc", "initsnc.f");
  symbols->add("octant", "octant.f");
  symbols->add("rcv_real", "mpi_stuff.f");
  symbols->add("snd_real", "mpi_stuff.f");
  symbols->add("global_int_sum", "global.f");
  symbols->add("global_real_sum", "global.f");
  symbols->add("global_real_max", "global.f");
  symbols->add("barrier_sync", "global.f");
  symbols->add("timers", "timers.f");
  symbols->add("last", "last.f");
  return symbols;
}

/// The functions the bodies call, resolved when a spec is built.
struct Sweep3dFns {
  image::FunctionId read_input, decomp, initialize, initxs, initsnc, source, octant;
  image::FunctionId rcv_real, sweep, snd_real, flux_err, global_real_max, last;
};

std::shared_ptr<const Sweep3dFns> resolve_fns(const AppSpec& spec) {
  auto fns = std::make_shared<Sweep3dFns>();
  fns->read_input = spec.fid("read_input");
  fns->decomp = spec.fid("decomp");
  fns->initialize = spec.fid("initialize");
  fns->initxs = spec.fid("initxs");
  fns->initsnc = spec.fid("initsnc");
  fns->source = spec.fid("source");
  fns->octant = spec.fid("octant");
  fns->rcv_real = spec.fid("rcv_real");
  fns->sweep = spec.fid("sweep");
  fns->snd_real = spec.fid("snd_real");
  fns->flux_err = spec.fid("flux_err");
  fns->global_real_max = spec.fid("global_real_max");
  fns->last = spec.fid("last");
  return fns;
}

sim::Coro<void> body(AppContext& ctx, proc::SimThread& thread,
                     std::shared_ptr<const Sweep3dFns> fns) {
  const int p = ctx.nprocs();
  const int rank = ctx.rank();
  Rng& rng = ctx.rng();
  mpi::Rank* mpi = ctx.mpi();

  co_await ctx.leaf(thread, fns->read_input, sim::milliseconds(40));
  co_await ctx.leaf(thread, fns->decomp, sim::milliseconds(25));
  co_await ctx.leaf(thread, fns->initialize,
                    sim::nanoseconds(rng.normal_at_least(0.9e9, 0.1e9, 1e6)));
  co_await ctx.leaf(thread, fns->initxs, sim::milliseconds(180));
  co_await ctx.leaf(thread, fns->initsnc, sim::milliseconds(120));

  const std::int64_t steps = ctx.iters(kTimesteps);
  // Per-rank block work per (timestep, octant).
  const double block_work =
      kTotalWorkNs / (kTimesteps * kOctants * static_cast<double>(p));

  for (std::int64_t step = 0; step < steps; ++step) {
    co_await ctx.leaf(thread, fns->source,
                      sim::nanoseconds(rng.normal_at_least(block_work * 0.4,
                                                           block_work * 0.03, 1e5)));
    for (int oct = 0; oct < kOctants; ++oct) {
      // 1-D pipeline: even octants sweep rank 0 -> P-1, odd ones reverse.
      const bool forward = (oct % 2) == 0;
      const int upstream = forward ? rank - 1 : rank + 1;
      const int downstream = forward ? rank + 1 : rank - 1;
      const int tag = 300 + oct;

      co_await ctx.call(thread, fns->octant, [](proc::SimThread& t) -> sim::Coro<void> {
        co_await t.compute(sim::microseconds(40));
      });
      const double chunk_work = block_work / kPipelineChunks;
      for (int chunk = 0; chunk < kPipelineChunks; ++chunk) {
        const int chunk_tag = tag * kPipelineChunks + chunk;
        if (mpi != nullptr && upstream >= 0 && upstream < p) {
          co_await ctx.call(thread, fns->rcv_real,
                            [mpi, upstream, chunk_tag](proc::SimThread& t) -> sim::Coro<void> {
                              co_await mpi->recv(t, upstream, chunk_tag, nullptr);
                            });
        }
        co_await ctx.leaf(thread, fns->sweep,
                          sim::nanoseconds(rng.normal_at_least(chunk_work,
                                                               chunk_work * 0.04, 1e4)));
        if (mpi != nullptr && downstream >= 0 && downstream < p) {
          co_await ctx.call(thread, fns->snd_real,
                            [mpi, downstream, chunk_tag](proc::SimThread& t) -> sim::Coro<void> {
                              co_await mpi->send(t, downstream, chunk_tag, kAngleBlockBytes);
                            });
        }
      }
    }
    co_await ctx.leaf(thread, fns->flux_err,
                      sim::nanoseconds(rng.normal_at_least(block_work * 0.15,
                                                           block_work * 0.02, 1e5)));
    if (mpi != nullptr) {
      co_await ctx.call(thread, fns->global_real_max,
                        [mpi](proc::SimThread& t) -> sim::Coro<void> {
                          co_await mpi->allreduce(t, 8);
                        });
    }
  }
  co_await ctx.leaf(thread, fns->last, sim::milliseconds(30));
}

}  // namespace

const AppSpec& sweep3d() {
  static const AppSpec spec = [] {
    AppSpec s;
    s.name = "sweep3d";
    s.language = "MPI/F77";
    s.description = "A neutron transport problem";
    s.model = AppSpec::Model::kMpi;
    s.scaling = AppSpec::Scaling::kStrong;
    s.min_procs = 2;  // the MPI version does not execute correctly on 1 CPU
    s.max_procs = 64;
    s.symbols = build_symbols();
    // No Subset policy in the paper; Dynamic instruments all user functions.
    s.subset = {};
    for (const auto& fn : s.symbols->all()) {
      if (fn.module != "libmpi") s.dynamic_list.push_back(fn.name);
    }
    s.body = [fns = resolve_fns(s)](AppContext& ctx, proc::SimThread& thread) {
      return body(ctx, thread, fns);
    };
    return s;
  }();
  return spec;
}


// ---------------------------------------------------------------------------
// Mixed-mode variant (paper Figure 4: 8 MPI processes x 4 OpenMP threads)
// ---------------------------------------------------------------------------

namespace {

sim::Coro<void> hybrid_body(AppContext& ctx, proc::SimThread& thread,
                            std::shared_ptr<const Sweep3dFns> fns) {
  const int p = ctx.nprocs();
  const int rank = ctx.rank();
  Rng& rng = ctx.rng();
  mpi::Rank* mpi = ctx.mpi();
  omp::OmpRuntime* omp = ctx.omp();
  DT_ASSERT(omp != nullptr, "hybrid sweep3d needs an OpenMP team per rank");
  const int team = omp->num_threads();

  co_await ctx.leaf(thread, fns->read_input, sim::milliseconds(40));
  co_await ctx.leaf(thread, fns->decomp, sim::milliseconds(25));
  co_await ctx.leaf(thread, fns->initialize,
                    sim::nanoseconds(rng.normal_at_least(0.9e9, 0.1e9, 1e6)));

  const std::int64_t steps = ctx.iters(kTimesteps);
  const double block_work =
      kTotalWorkNs / (kTimesteps * kOctants * static_cast<double>(p));

  for (std::int64_t step = 0; step < steps; ++step) {
    co_await ctx.leaf(thread, fns->source,
                      sim::nanoseconds(rng.normal_at_least(block_work * 0.4,
                                                           block_work * 0.03, 1e5)));
    for (int oct = 0; oct < kOctants; ++oct) {
      const bool forward = (oct % 2) == 0;
      const int upstream = forward ? rank - 1 : rank + 1;
      const int downstream = forward ? rank + 1 : rank - 1;
      const int tag = 300 + oct;
      const double chunk_work = block_work / kPipelineChunks;

      for (int chunk = 0; chunk < kPipelineChunks; ++chunk) {
        const int chunk_tag = tag * kPipelineChunks + chunk;
        // MPI from the master thread only (funneled hybrid style)...
        if (mpi != nullptr && upstream >= 0 && upstream < p) {
          co_await ctx.call(thread, fns->rcv_real,
                            [mpi, upstream, chunk_tag](proc::SimThread& t) -> sim::Coro<void> {
                              co_await mpi->recv(t, upstream, chunk_tag, nullptr);
                            });
        }
        // ...then the angle block is swept by the OpenMP team.
        co_await omp->parallel(
            thread,
            [&ctx, &rng, sweep = fns->sweep, chunk_work, team](proc::SimThread& wt, int,
                                                               int) -> sim::Coro<void> {
              const double share = chunk_work / team;
              co_await ctx.call(wt, sweep, [&](proc::SimThread& t3) -> sim::Coro<void> {
                co_await t3.compute(
                    sim::nanoseconds(rng.normal_at_least(share, share * 0.05, 1e3)));
              });
            });
        if (mpi != nullptr && downstream >= 0 && downstream < p) {
          co_await ctx.call(thread, fns->snd_real,
                            [mpi, downstream, chunk_tag](proc::SimThread& t) -> sim::Coro<void> {
                              co_await mpi->send(t, downstream, chunk_tag, kAngleBlockBytes);
                            });
        }
      }
    }
    co_await ctx.leaf(thread, fns->flux_err,
                      sim::nanoseconds(rng.normal_at_least(block_work * 0.15,
                                                           block_work * 0.02, 1e5)));
    if (mpi != nullptr) {
      co_await ctx.call(thread, fns->global_real_max,
                        [mpi](proc::SimThread& t) -> sim::Coro<void> {
                          co_await mpi->allreduce(t, 8);
                        });
    }
  }
  co_await ctx.leaf(thread, fns->last, sim::milliseconds(30));
}

}  // namespace

const AppSpec& sweep3d_hybrid() {
  static const AppSpec spec = [] {
    AppSpec s;
    s.name = "sweep3d-hybrid";
    s.language = "MPI+OMP/F77";
    s.description = "Neutron transport, mixed MPI/OpenMP (Figure 4 configuration)";
    s.model = AppSpec::Model::kMixed;
    s.scaling = AppSpec::Scaling::kStrong;
    s.min_procs = 2;
    s.max_procs = 64;
    s.symbols = build_symbols();
    s.subset = {};
    for (const auto& fn : s.symbols->all()) {
      if (fn.module != "libmpi") s.dynamic_list.push_back(fn.name);
    }
    s.body = [fns = resolve_fns(s)](AppContext& ctx, proc::SimThread& thread) {
      return hybrid_body(ctx, thread, fns);
    };
    return s;
  }();
  return spec;
}

}  // namespace dyntrace::asci
