// The ASCI kernel application framework (paper Table 2).
//
// Each application is described by an AppSpec: its symbol inventory, the
// "important subset" its authors identified for the Subset/Dynamic
// policies, and a body coroutine that expresses the computation as calls
// through the instrumentation protocol (SimThread::call_function) plus MPI
// / OpenMP operations.
//
// Hot leaf functions execute via AppContext::leaf_repeat, which runs the
// full probe protocol once and charges the remaining calls in aggregate
// using the library's steady-state per-call cost -- bit-exact in total
// charged time, while keeping host-side event counts bounded.  The
// aggregated calls still update VT statistics and the virtual trace-size
// counter (see vt::VtLib::note_synthetic_pairs).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "image/image.hpp"
#include "mpi/world.hpp"
#include "omp/runtime.hpp"
#include "proc/process.hpp"
#include "support/rng.hpp"
#include "vt/vtlib.hpp"

namespace dyntrace::asci {

class AppContext;

struct AppSpec {
  /// kMixed: MPI ranks each carrying an OpenMP team (the paper's headline
  /// use case, Figure 4: "sweep3d using 8 MPI processes x 4 OpenMP
  /// threads").
  enum class Model : std::uint8_t { kMpi, kOpenMP, kMixed };
  enum class Scaling : std::uint8_t { kWeak, kStrong };

  std::string name;
  std::string language;     ///< Table 2 "Type/Lang"
  std::string description;  ///< Table 2 description
  Model model = Model::kMpi;
  Scaling scaling = Scaling::kWeak;
  int min_procs = 1;
  int max_procs = 64;

  std::shared_ptr<const image::SymbolTable> symbols;

  /// The "important subset" (Subset policy re-activates these; Dynamic
  /// instruments them).
  std::vector<std::string> subset;

  /// Functions dynprof instruments under the Dynamic policy (== subset for
  /// Smg98/Sppm/Umt98; all user functions for Sweep3d, paper §4.3).
  std::vector<std::string> dynamic_list;

  /// The computation between MPI_Init/VT_init and finalization.  Bodies
  /// call functions by FunctionId: each kernel resolves the names it calls
  /// into tables when its spec is built (see fid).
  using BodyFn = std::function<sim::Coro<void>(AppContext&, proc::SimThread&)>;
  BodyFn body;

  std::size_t user_function_count() const;

  /// Id of `function` in `symbols`; throws naming the app when it is
  /// absent.  A setup-time lookup, for building FunctionId tables.
  image::FunctionId fid(std::string_view function) const;
};

struct AppParams {
  int nprocs = 1;             ///< MPI ranks, or OpenMP threads for kOpenMP apps
  int threads_per_rank = 1;   ///< OpenMP team size per rank (kMixed apps)
  double problem_scale = 1.0; ///< scales iteration counts (tests use < 1)
  std::uint64_t seed = 42;
  /// Safe-point cadence: the bodies *offer* safe points at natural
  /// boundaries (AppContext::safe_point); every confsync_interval-th offer
  /// becomes a VT_confsync, with a power-of-two warm-up ramp (offers 1, 2,
  /// 4, ...) so a control plane gets early windows before settling into
  /// the steady cadence.  0 disables safe points entirely.
  int confsync_interval = 0;
  /// Run the statistics path on every fired confsync (Figure 8b / the
  /// control plane's feedback input).
  bool confsync_statistics = false;
};

/// Per-process runtime context handed to application bodies.
class AppContext {
 public:
  /// `mpi` and `omp` are null for apps of the other model; `vt` (the
  /// process's VT library) never is.
  AppContext(const AppSpec& spec, AppParams params, proc::SimProcess& process, mpi::Rank* mpi,
             omp::OmpRuntime* omp, vt::VtLib* vt, Rng rng);

  const AppSpec& spec() const { return spec_; }
  const AppParams& params() const { return params_; }
  proc::SimProcess& process() { return process_; }
  mpi::Rank* mpi() { return mpi_; }
  omp::OmpRuntime* omp() { return omp_; }
  vt::VtLib* vt() { return vt_; }
  Rng& rng() { return rng_; }

  /// MPI rank (0 for OpenMP apps).
  int rank() const { return mpi_ != nullptr ? mpi_->rank() : 0; }
  int nprocs() const { return params_.nprocs; }

  /// spec().fid(name): resolve once, then call by id.
  image::FunctionId fid(std::string_view name) const;

  /// Call `fn` through the instrumentation protocol with a custom body.
  sim::Coro<void> call(proc::SimThread& thread, image::FunctionId fn,
                       proc::SimThread::BodyFn body);

  /// Call a leaf function that burns `work` CPU time.
  sim::Coro<void> leaf(proc::SimThread& thread, image::FunctionId fn, sim::TimeNs work);

  /// Call a leaf `count` times with `work_each` per call: full protocol
  /// once, remainder charged in aggregate at the steady-state per-call cost.
  sim::Coro<void> leaf_repeat(proc::SimThread& thread, image::FunctionId fn,
                              std::int64_t count, sim::TimeNs work_each);

  /// Iteration count scaled by problem_scale (>= 1).
  std::int64_t iters(double base) const;

  /// Offer a safe point (call from single-threaded regions at natural
  /// boundaries, identically on every rank).  Fires VT_confsync on the
  /// cadence described at AppParams::confsync_interval; a no-op when safe
  /// points are disabled or VT is not initialized.
  sim::Coro<void> safe_point(proc::SimThread& thread);

  /// Safe points offered so far (fired or not).
  std::int64_t safe_point_offers() const { return safe_point_offers_; }

  /// Steady-state instrumentation overhead of one enter/exit pair of `fn`
  /// in the current image/library state (public for tests and benches).
  sim::TimeNs steady_pair_overhead(image::FunctionId fn) const;

 private:
  const AppSpec& spec_;
  AppParams params_;
  proc::SimProcess& process_;
  mpi::Rank* mpi_;
  omp::OmpRuntime* omp_;
  vt::VtLib* vt_;
  Rng rng_;
  std::int64_t safe_point_offers_ = 0;
};

// --- the four kernels (built once, cached) -----------------------------------

const AppSpec& smg98();    ///< multigrid solver, MPI/C, 199 fns, 62 subset
const AppSpec& sppm();     ///< 3-D gas dynamics, MPI/F77, 22 fns, 7 subset
const AppSpec& sweep3d();  ///< neutron transport, MPI/F77, 21 fns, all dynamic
const AppSpec& umt98();    ///< Boltzmann transport, OpenMP/F77, 44 fns, 6 subset

/// Mixed-mode sweep3d: the configuration of the paper's Figure 4 (MPI
/// ranks each driving an OpenMP team through the sweep kernels).  An
/// extension beyond the four Table-2 evaluation kernels.
const AppSpec& sweep3d_hybrid();

/// The four Table-2 kernels (the paper's evaluation set).
std::vector<const AppSpec*> all_apps();

/// nullptr when unknown.
const AppSpec* find_app(std::string_view name);

}  // namespace dyntrace::asci
