#include "dynprof/launch.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "guide/compiler.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"

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

Launch::Launch(Options options)
    : options_(std::move(options)),
      owned_telemetry_(options_.shared_telemetry != nullptr
                           ? nullptr
                           : std::make_unique<telemetry::Registry>(options_.telemetry_level)),
      telemetry_(options_.shared_telemetry != nullptr ? options_.shared_telemetry
                                                      : owned_telemetry_.get()),
      owned_engine_(options_.shared_engine != nullptr ? nullptr
                                                      : std::make_unique<sim::Engine>()),
      engine_(options_.shared_engine != nullptr ? options_.shared_engine
                                                : owned_engine_.get()),
      init_trigger_(*engine_) {
  DT_EXPECT(options_.app != nullptr, "Launch needs an application");
  DT_EXPECT(options_.sim_threads == 1, "Launch::Options::sim_threads must be 1 (got ",
            options_.sim_threads, "): the simulator has one sequential engine");
  // Installing the registry is the owning Launch's job; a shared-substrate
  // Launch expects the scenario owner to have installed the shared one.
  if (owned_telemetry_ != nullptr) scoped_registry_.emplace(*telemetry_);
  const asci::AppSpec& app = *options_.app;
  const asci::AppParams& params = options_.params;
  if (options_.job_name.empty()) options_.job_name = app.name;
  DT_EXPECT(params.nprocs >= app.min_procs, app.name, " does not run on ", params.nprocs,
            " processor(s) (minimum ", app.min_procs, ")");
  DT_EXPECT(params.nprocs <= app.max_procs, app.name, " was evaluated up to ", app.max_procs,
            " processors; got ", params.nprocs);

  if (options_.shared_cluster != nullptr) {
    DT_EXPECT(options_.shared_engine != nullptr,
              "a shared cluster requires its shared engine");
    cluster_ = options_.shared_cluster;
  } else {
    DT_EXPECT(options_.shared_engine == nullptr,
              "a shared engine requires a shared cluster");
    machine::MachineSpec spec =
        options_.machine.has_value() ? *options_.machine : machine::ibm_power3_sp();
    owned_cluster_ = std::make_unique<machine::Cluster>(
        *engine_, std::move(spec), /*noise_seed=*/params.seed ^ 0x9e3779b9);
    cluster_ = owned_cluster_.get();
  }
  vt::TraceStore::Options store_options;
  store_options.spill_budget_bytes = options_.trace_spill_bytes;
  store_options.spill_dir = options_.trace_spill_dir;
  store_options.format = options_.trace_format;
  if (options_.fault != nullptr) {
    // Every layer gates on the cluster's injector pointer; setting it is
    // what switches the stack into fault-tolerant mode.
    cluster_->set_fault_injector(options_.fault.get());
    fault::FaultInjector* injector = options_.fault.get();
    // A shared cluster's owner checks the plan against every job it hosts.
    if (options_.shared_cluster == nullptr) {
      const int processes = app.model == asci::AppSpec::Model::kOpenMP ? 1 : params.nprocs;
      injector->plan().check_targets(cluster_->spec().nodes,
                                     {{options_.job_name, processes}});
    }
    store_options.spill_fault = [injector, job = options_.job_name](
                                    std::int32_t pid, std::uint64_t run_index,
                                    std::size_t bytes) {
      return injector->spill_bytes(pid, run_index, bytes, job);
    };
  }
  store_ = std::make_shared<vt::TraceStore>(std::move(store_options));
  staged_ = std::make_shared<vt::StagedUpdate>();
  job_ = std::make_unique<proc::ParallelJob>(*cluster_, options_.job_name);

  const bool is_mpi = app.model != asci::AppSpec::Model::kOpenMP;
  const bool uses_omp = app.model != asci::AppSpec::Model::kMpi;
  if (is_mpi) world_ = std::make_unique<mpi::World>(*cluster_);
  DT_EXPECT(params.threads_per_rank >= 1, "threads_per_rank must be >= 1");
  DT_EXPECT(app.model == asci::AppSpec::Model::kMixed || params.threads_per_rank == 1,
            app.name, " is not a mixed-mode application");

  // Static instrumentation per policy (the "Guide compile" step).
  guide::CompileOptions compile_options;
  compile_options.instrument_subroutines = options_.policy == Policy::kFull ||
                                           options_.policy == Policy::kFullOff ||
                                           options_.policy == Policy::kSubset;
  const image::ProgramImage template_image = guide::compile(app.symbols, compile_options);

  // The VT configuration file per policy.
  vt::VtLib::Options vt_options;
  vt_options.buffer_records = options_.vt_buffer_records;
  if (options_.policy == Policy::kFullOff) {
    vt_options.config_filter = guide::full_off_filter();
  } else if (options_.policy == Policy::kSubset) {
    DT_EXPECT(!app.subset.empty(), app.name, " has no Subset policy");
    vt_options.config_filter = guide::subset_filter(app.subset);
  }

  // Placement: MPI ranks fill nodes CPU by CPU; an OpenMP app is a single
  // process whose team occupies one node; a mixed app's ranks each occupy
  // threads_per_rank consecutive CPUs.
  const int nprocs = is_mpi ? params.nprocs : 1;
  const int cpus_per_proc = app.model == asci::AppSpec::Model::kOpenMP
                                ? params.nprocs
                                : params.threads_per_rank;
  const auto placement =
      cluster_->place_block(nprocs, cpus_per_proc, options_.first_app_cpu);

  Rng seed_rng(params.seed);
  Rng clock_rng(params.seed ^ 0xc10c);
  for (int pid = 0; pid < nprocs; ++pid) {
    proc::SimProcess& process =
        job_->add_process(template_image, placement[pid].node + options_.first_app_node,
                          placement[pid].cpu);

    vt::VtLib::Options process_vt_options = vt_options;
    if (options_.clock_skew_stddev > 0 && pid > 0) {
      process_vt_options.clock_offset = static_cast<sim::TimeNs>(
          clock_rng.normal(0, static_cast<double>(options_.clock_skew_stddev)));
    }
    auto vt = std::make_unique<vt::VtLib>(process, store_, process_vt_options);
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
      const int team = app.model == asci::AppSpec::Model::kOpenMP ? params.nprocs
                                                                  : params.threads_per_rank;
      omp_runtimes_.push_back(std::make_unique<omp::OmpRuntime>(process, team));
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
}

Launch::~Launch() = default;

sim::Coro<void> Launch::rank_main(int pid, proc::SimThread& thread) {
  const asci::AppSpec& app = *options_.app;
  asci::AppContext& ctx = context(pid);
  // Mixed-mode ranks initialise through MPI_Init like pure MPI ones (the
  // OpenMP side needs no cross-process synchronisation for VT init).
  const bool is_mpi = app.model != asci::AppSpec::Model::kOpenMP;

  co_await ctx.call(thread, "main", [&](proc::SimThread& t) -> sim::Coro<void> {
    if (is_mpi) {
      // The VT library initialises itself inside MPI_Init through the MPI
      // wrapper interface (§3.4) -- and dynprof's initialization snippet
      // (Figure 6) runs at this function's *exit* probe point.
      co_await ctx.call(t, "MPI_Init", [&](proc::SimThread& t2) -> sim::Coro<void> {
        co_await world_->rank(pid).init(t2);
        co_await vt(pid).vt_init(t2);
      });
    } else {
      // OpenMP: Guide inserts VT_init at the start of main; dynprof's
      // callback+spin snippet runs at VT_init's exit (§3.4).
      co_await ctx.call(t, "VT_init", [&](proc::SimThread& t2) -> sim::Coro<void> {
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
      co_await ctx.call(t, "MPI_Finalize", [&](proc::SimThread& t2) -> sim::Coro<void> {
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
  for (const auto& vt : vts_) {
    result.trace_events += vt->virtual_events();
    result.filtered_events += vt->events_filtered();
  }
  return result;
}

Launch::Result Launch::run_to_completion() {
  start();
  engine_->run();
  return collect_result();
}

}  // namespace dyntrace::dynprof
