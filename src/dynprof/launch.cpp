#include "dynprof/launch.hpp"

#include <algorithm>
#include <cmath>

#include "control/overlay.hpp"
#include "fault/injector.hpp"
#include "guide/compiler.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::dynprof {

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::kFull: return "Full";
    case Policy::kFullOff: return "Full-Off";
    case Policy::kSubset: return "Subset";
    case Policy::kNone: return "None";
    case Policy::kDynamic: return "Dynamic";
    case Policy::kAdaptive: return "Adaptive";
  }
  return "?";
}

Policy policy_from_string(const std::string& name) {
  for (const auto& info : policy_table()) {
    if (str::iequals(name, info.name)) return info.policy;
  }
  fail("unknown policy '", name, "' (Full, Full-Off, Subset, None, Dynamic, Adaptive)");
}

const std::vector<PolicyInfo>& policy_table() {
  static const std::vector<PolicyInfo> table = {
      {Policy::kFull, "Full", "All functions are statically instrumented."},
      {Policy::kFullOff, "Full-Off",
       "All functions are statically instrumented but disabled using the configuration "
       "file."},
      {Policy::kSubset, "Subset",
       "All functions are statically instrumented with only an important subset left "
       "active."},
      {Policy::kNone, "None", "No subroutine instrumentation is inserted."},
      {Policy::kDynamic, "Dynamic",
       "The dynprof tool is used to dynamically instrument the same functions used by "
       "Subset."},
      {Policy::kAdaptive, "Adaptive",
       "All functions are dynamically instrumented and an overhead-budget controller "
       "prunes the set at runtime safe points."},
  };
  return table;
}

std::vector<Policy> policies_for(const asci::AppSpec& app) {
  if (app.subset.empty()) {
    // Sweep3d: "we decided that a Subset version was unnecessary" (§4.3).
    return {Policy::kFull, Policy::kFullOff, Policy::kNone, Policy::kDynamic};
  }
  return {Policy::kFull, Policy::kFullOff, Policy::kSubset, Policy::kNone, Policy::kDynamic};
}

JobFootprint job_footprint(const asci::AppSpec& app, const asci::AppParams& params) {
  DT_EXPECT(params.nprocs >= app.min_procs, app.name, " does not run on ", params.nprocs,
            " processor(s) (minimum ", app.min_procs, ")");
  DT_EXPECT(std::isfinite(params.problem_scale) && params.problem_scale > 0, app.name,
            ": problem scale must be a finite number > 0, got ", params.problem_scale);
  DT_EXPECT(params.threads_per_rank >= 1, "threads_per_rank must be >= 1");
  DT_EXPECT(app.model == asci::AppSpec::Model::kMixed || params.threads_per_rank == 1,
            app.name, " is not a mixed-mode application");
  if (app.model == asci::AppSpec::Model::kOpenMP) return {1, params.nprocs};
  return {params.nprocs, params.threads_per_rank};
}

Substrate::Substrate(machine::MachineSpec spec, std::uint64_t noise_seed,
                     telemetry::Level level, fault::FaultInjector* fault,
                     const std::vector<fault::JobExtent>& jobs)
    : telemetry(level), installed(telemetry), cluster(engine, std::move(spec), noise_seed) {
  if (fault != nullptr) {
    fault->plan().check_targets(cluster.spec().nodes, jobs);
    cluster.set_fault_injector(*fault);
  }
}

namespace {

/// The options a Launch runs by: checked, with the job name defaulted.
Launch::Options checked(Launch::Options options) {
  DT_EXPECT(options.app != nullptr, "Launch needs an application");
  DT_EXPECT(options.sim_threads == 1, "Launch::Options::sim_threads must be 1 (got ",
            options.sim_threads, "): the simulator has one sequential engine");
  DT_EXPECT(options.cluster == nullptr || (!options.machine && options.fault == nullptr),
            "a borrowed cluster brings its own machine and fault injector");
  if (options.job_name.empty()) options.job_name = options.app->name;
  return options;
}

}  // namespace

Launch::Launch(Options options)
    : options_(checked(std::move(options))),
      footprint_(job_footprint(*options_.app, options_.params)),
      substrate_(options_.cluster != nullptr
                     ? nullptr
                     : std::make_unique<Substrate>(
                           options_.machine ? *options_.machine
                                            : machine::machine_for_cpus(
                                                  std::int64_t{footprint_.processes} *
                                                  footprint_.cpus_per_process),
                           /*noise_seed=*/options_.params.seed ^ 0x9e3779b9,
                           options_.telemetry_level, options_.fault.get(),
                           std::vector<fault::JobExtent>{
                               {options_.job_name, footprint_.processes}})),
      cluster_(substrate_ != nullptr ? &substrate_->cluster : options_.cluster),
      telemetry_(&telemetry::current()),
      init_trigger_(cluster_->engine()) {
  const asci::AppSpec& app = *options_.app;
  const asci::AppParams& params = options_.params;
  vt::TraceStore::Options store_options;
  store_options.spill_budget_bytes = options_.trace_spill_bytes;
  store_options.spill_dir = options_.trace_spill_dir;
  store_options.spill_fault = [injector = &cluster_->fault_injector(),
                               job = options_.job_name](std::int32_t pid,
                                                        std::uint64_t run_index,
                                                        std::size_t bytes) {
    return injector->spill_bytes(pid, run_index, bytes, job);
  };
  store_ = std::make_shared<vt::TraceStore>(std::move(store_options));
  staged_ = std::make_shared<vt::StagedUpdate>();
  job_ = std::make_unique<proc::ParallelJob>(*cluster_, options_.job_name);

  const bool is_mpi = app.model != asci::AppSpec::Model::kOpenMP;
  const bool uses_omp = app.model != asci::AppSpec::Model::kMpi;
  if (is_mpi) world_ = std::make_unique<mpi::World>(*cluster_);

  // Static instrumentation per policy (the "Guide compile" step).
  guide::CompileOptions compile_options;
  compile_options.instrument_subroutines = options_.policy == Policy::kFull ||
                                           options_.policy == Policy::kFullOff ||
                                           options_.policy == Policy::kSubset;
  const image::ProgramImage template_image = guide::compile(app.symbols, compile_options);

  // The VT configuration file per policy, compiled once for the whole job;
  // every rank applies the same delta at VT_init.
  vt::VtLib::Options vt_options;
  if (options_.policy == Policy::kFullOff) {
    vt_options.config_filter = vt::compile_filter(*app.symbols, guide::full_off_filter());
  } else if (options_.policy == Policy::kSubset) {
    DT_EXPECT(!app.subset.empty(), app.name, " has no Subset policy");
    vt_options.config_filter =
        vt::compile_filter(*app.symbols, guide::subset_filter(app.subset));
  }

  // The functions rank_main calls around the app body.
  main_fn_ = app.fid("main");
  init_fn_ = app.fid(is_mpi ? "MPI_Init" : "VT_init");
  if (is_mpi) finalize_fn_ = app.fid("MPI_Finalize");

  // Placement: processes fill nodes block by block, each occupying its
  // footprint's consecutive CPUs (an OpenMP team, a mixed rank's threads).
  const auto placement = cluster_->place_block(
      footprint_.processes, footprint_.cpus_per_process, options_.first_app_cpu);

  Rng seed_rng(params.seed);
  for (int pid = 0; pid < footprint_.processes; ++pid) {
    proc::SimProcess& process =
        job_->add_process(template_image, placement[pid].node + options_.first_app_node,
                          placement[pid].cpu);

    auto vt = std::make_unique<vt::VtLib>(process, store_, vt_options);
    vt->link();
    vt->set_staged_update(staged_);

    mpi::Rank* rank = nullptr;
    if (is_mpi) {
      rank = &world_->add_rank(process);
      vt->set_rank(rank);
      auto interpose = std::make_unique<vt::VtMpiInterpose>(*vt);
      rank->set_interpose(interpose.get());
      interposes_.push_back(std::move(interpose));
    }

    omp::OmpRuntime* omp = nullptr;
    if (uses_omp) {
      omp_runtimes_.push_back(
          std::make_unique<omp::OmpRuntime>(process, footprint_.cpus_per_process));
      omp_listeners_.push_back(std::make_unique<vt::VtOmpListener>(*vt));
      omp_runtimes_.back()->set_listener(omp_listeners_.back().get());
      omp = omp_runtimes_.back().get();
    }

    contexts_.push_back(std::make_unique<asci::AppContext>(
        app, params, process, rank, omp, vt.get(), seed_rng.fork(pid)));
    vts_.push_back(std::move(vt));

    job_->set_main(pid, [this, pid](proc::SimThread& thread) -> sim::Coro<void> {
      co_await rank_main(pid, thread);
    });
  }

  // Runtime statistics (§5) reach rank 0 at VT_confsync through one
  // reduction tree shared by every rank.
  if (params.confsync_statistics && options_.stats_overlay_arity > 0) {
    auto overlay = std::make_shared<control::StatsOverlay>(options_.stats_overlay_arity);
    overlay->prepare(process_count());
    overlay->set_job(options_.job_name);
    for (const auto& vt : vts_) vt->set_stats_aggregator(overlay);
  }
}

Launch::~Launch() = default;

sim::Coro<void> Launch::rank_main(int pid, proc::SimThread& thread) {
  const asci::AppSpec& app = *options_.app;
  asci::AppContext& ctx = context(pid);
  // Mixed-mode ranks initialise through MPI_Init like pure MPI ones (the
  // OpenMP side needs no cross-process synchronisation for VT init).
  const bool is_mpi = app.model != asci::AppSpec::Model::kOpenMP;

  co_await ctx.call(thread, main_fn_, [&](proc::SimThread& t) -> sim::Coro<void> {
    if (is_mpi) {
      // The VT library initialises itself inside MPI_Init through the MPI
      // wrapper interface (§3.4) -- and dynprof's initialization snippet
      // (Figure 6) runs at this function's *exit* probe point.
      co_await ctx.call(t, init_fn_, [&](proc::SimThread& t2) -> sim::Coro<void> {
        co_await world_->rank(pid).init(t2);
        co_await vt(pid).vt_init(t2);
      });
    } else {
      // OpenMP: Guide inserts VT_init at the start of main; dynprof's
      // callback+spin snippet runs at VT_init's exit (§3.4).
      co_await ctx.call(t, init_fn_, [&](proc::SimThread& t2) -> sim::Coro<void> {
        co_await vt(pid).vt_init(t2);
      });
    }
    init_latest_ = std::max(init_latest_, thread.engine().now());
    if (++init_done_count_ == process_count()) {
      init_complete_ = init_latest_;  // stays -1 until everyone is done
      init_trigger_.fire();
    }

    co_await app.body(ctx, t);

    if (is_mpi) {
      co_await ctx.call(t, finalize_fn_, [&](proc::SimThread& t2) -> sim::Coro<void> {
        co_await vt(pid).vt_finalize(t2);
        co_await world_->rank(pid).finalize(t2);
      });
    } else {
      co_await vt(pid).vt_finalize(t);
    }
  });
}

Launch::Result Launch::collect_result() const {
  Result result;
  result.total_seconds = sim::to_seconds(job_->finish_time() - job_->start_time());
  const sim::TimeNs t0 = init_complete_ >= 0 ? init_complete_ : job_->start_time();
  result.app_seconds = sim::to_seconds(job_->finish_time() - t0);
  std::uint64_t recorded = 0;
  std::uint64_t synthetic_pairs = 0;
  for (const auto& vt : vts_) {
    result.trace_events += vt->virtual_events();
    result.filtered_events += vt->events_filtered();
    recorded += vt->events_recorded();
    synthetic_pairs += vt->synthetic_pairs();
  }
  // Export the libraries' own counts once per collection: only what grew
  // since the last one, so collecting twice does not double-count.
  telemetry::Registry& reg = *telemetry_;
  reg.add(reg.metrics().vt_events_recorded, recorded - exported_recorded_);
  reg.add(reg.metrics().vt_synthetic_pairs, synthetic_pairs - exported_synthetic_pairs_);
  exported_recorded_ = recorded;
  exported_synthetic_pairs_ = synthetic_pairs;
  return result;
}

Launch::Result Launch::run_to_completion() {
  start();
  engine().run();
  return collect_result();
}

}  // namespace dyntrace::dynprof
