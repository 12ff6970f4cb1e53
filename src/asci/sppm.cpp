// Sppm: simplified piecewise-parabolic-method 3-D gas dynamics
// (paper Table 2, Figure 7b).
//
// 22 user functions; the 7-function subset holds the directional hydro
// drivers where most *time* is spent, while 14 small interpolation/EOS
// helpers carry most of the *calls*.  Full is therefore clearly slower than
// None (≈1.5x at 64 CPUs) but far less extreme than Smg98, exactly as in
// the paper.  Weak scaling with a mild time increase from step-count growth
// and halo traffic.
#include <cmath>

#include "asci/app.hpp"
#include "support/strings.hpp"

namespace dyntrace::asci {

namespace {

constexpr int kHelperFns = 14;
// Per-(step, direction) calls of one helper (2 helpers touched per dir).
constexpr std::int64_t kHelperCalls = 135'000;
constexpr double kHelperWorkNs = 1'000;
// Driver (subset) work per directional pass.
constexpr double kDriverWorkNs = 1.45e9;
constexpr std::int64_t kHaloBytes = 512 * 1024;

const char* const kDrivers[7] = {"sppm_hydro_x", "sppm_hydro_y",  "sppm_hydro_z",
                                 "sppm_dinterp", "sppm_difuze",   "sppm_riemann",
                                 "sppm_courant"};

std::shared_ptr<const image::SymbolTable> build_symbols() {
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main", "sppm.f");
  symbols->add("MPI_Init", "libmpi");
  symbols->add("MPI_Finalize", "libmpi");
  for (const char* name : kDrivers) symbols->add(name, "sppm_hydro.f");
  for (int i = 0; i < kHelperFns; ++i) {
    symbols->add(str::format("sppm_intrfc_%02d", i), "sppm_interp.f");
  }
  return symbols;
}

/// The functions the body calls, resolved when the spec is built.
struct SppmFns {
  image::FunctionId drivers[3];           ///< the x/y/z hydro drivers (kDrivers[0..2])
  image::FunctionId dinterp, difuze, courant;
  std::vector<image::FunctionId> intrfc;  ///< kHelperFns hot helpers
};

std::shared_ptr<const SppmFns> resolve_fns(const AppSpec& spec) {
  auto fns = std::make_shared<SppmFns>();
  for (int i = 0; i < 3; ++i) fns->drivers[i] = spec.fid(kDrivers[i]);
  fns->dinterp = spec.fid("sppm_dinterp");
  fns->difuze = spec.fid("sppm_difuze");
  fns->courant = spec.fid("sppm_courant");
  for (int i = 0; i < kHelperFns; ++i) {
    fns->intrfc.push_back(spec.fid(str::format("sppm_intrfc_%02d", i)));
  }
  return fns;
}

sim::Coro<void> body(AppContext& ctx, proc::SimThread& thread,
                     std::shared_ptr<const SppmFns> fns) {
  const int p = ctx.nprocs();
  const int rank = ctx.rank();
  Rng& rng = ctx.rng();
  mpi::Rank* mpi = ctx.mpi();

  // Grid / EOS setup inside the first driver call.
  co_await ctx.leaf(thread, fns->dinterp,
                    sim::nanoseconds(rng.normal_at_least(0.4e9, 0.05e9, 1e6)));

  const double log_p = p > 1 ? std::log2(static_cast<double>(p)) : 0.0;
  const std::int64_t steps = ctx.iters(8.0 + 1.2 * log_p);

  for (std::int64_t step = 0; step < steps; ++step) {
    // One directional double-sweep per dimension.
    for (int dir = 0; dir < 3; ++dir) {
      co_await ctx.call(
          thread, fns->drivers[dir],
          [&ctx, &rng, &fns, dir, step](proc::SimThread& t) -> sim::Coro<void> {
            // The driver's own flux computation...
            co_await t.compute(sim::nanoseconds(
                ctx.rng().normal_at_least(kDriverWorkNs, kDriverWorkNs * 0.06, 1e6)));
            // ...and the hot interpolation helpers it calls per cell.
            for (int h = 0; h < 2; ++h) {
              const int helper = (dir * 2 + h + static_cast<int>(step) * 5) % kHelperFns;
              const auto work = sim::nanoseconds(
                  rng.normal_at_least(kHelperWorkNs, kHelperWorkNs * 0.2, 120));
              co_await ctx.leaf_repeat(t, fns->intrfc[static_cast<std::size_t>(helper)],
                                       kHelperCalls, work);
            }
          });
      // Face exchange with both ring neighbours, overlapped with the next
      // pass's boundary preparation (non-blocking, as real sPPM does).
      if (mpi != nullptr && p > 1) {
        const int right = (rank + 1) % p;
        const int left = (rank - 1 + p) % p;
        const int tag = 200 + dir;
        mpi::Rank::Request send_req, recv_req;
        mpi->irecv(left, tag, &recv_req);
        co_await mpi->isend(thread, right, tag, kHaloBytes, &send_req);
        co_await ctx.leaf(thread, fns->difuze,
                          sim::nanoseconds(rng.normal_at_least(6e6, 1e6, 1e5)));
        co_await mpi->wait(thread, send_req);
        co_await mpi->wait(thread, recv_req, nullptr);
      }
    }
    // Courant condition: global timestep reduction.
    co_await ctx.leaf(thread, fns->courant,
                      sim::nanoseconds(rng.normal_at_least(25e6, 3e6, 1e6)));
    if (mpi != nullptr) co_await mpi->allreduce(thread, 8);
    // Natural safe point: the step boundary, after the global reduction
    // (every rank arrives here in lockstep).
    co_await ctx.safe_point(thread);
  }
}

}  // namespace

const AppSpec& sppm() {
  static const AppSpec spec = [] {
    AppSpec s;
    s.name = "sppm";
    s.language = "MPI/F77";
    s.description = "A 3D gas dynamics problem";
    s.model = AppSpec::Model::kMpi;
    s.scaling = AppSpec::Scaling::kWeak;
    s.min_procs = 1;
    s.max_procs = 64;
    s.symbols = build_symbols();
    s.subset.assign(std::begin(kDrivers), std::end(kDrivers));
    s.dynamic_list = s.subset;
    s.body = [fns = resolve_fns(s)](AppContext& ctx, proc::SimThread& thread) {
      return body(ctx, thread, fns);
    };
    return s;
  }();
  return spec;
}

}  // namespace dyntrace::asci
