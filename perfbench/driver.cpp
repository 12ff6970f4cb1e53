// perfbench driver: runs one benchmark workload against the dyntrace
// libraries and prints its measurements as one JSON line.
//
// The driver runs a workload pass after pass in one process, on one
// simulation thread (sim_threads = 1); cells inside a pass run back to
// back.  It times only the public calls it makes into each layer -- Launch
// construction, run_engine, the trace cursors, write_binary / open_binary,
// the analysis reports, run_scenario -- and reports figures over passes.
// Every number is either `host` (the simulator's own cost on this machine,
// `host-cpu` when it is CPU time rather than wall time, `host-cpu-norm`
// when that CPU time is normalised by the speed probe, see SpeedProbe) or
// `sim` (simulated time or counts, exact for a given seed).
//
// With --trace 1 the driver alternates traced passes (the Launch/scenario
// telemetry level set to spans, and a host-time span recorded around every
// call above, each under a parent span for its cell) with untraced ones.
// The traced passes give the per-layer numbers and the span file; the ratio
// of the two kinds of pass gives the tracing overhead.
//
//   perfbench_driver --workload fig7a_sweep --seed 42 --seconds 25 --trace 0
//                    [--size full|tiny] [--out-dir DIR]
//
// run.py builds this binary, checks the digests it reports against the
// pinned ones, and turns the JSON into the benchmark's result line.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/report.hpp"
#include "control/controller.hpp"
#include "control/overlay.hpp"
#include "dynprof/command.hpp"
#include "dynprof/launch.hpp"
#include "dynprof/tool.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "guide/compiler.hpp"
#include "service/scenario.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vt/vtlib.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

// --- normalised CPU time -----------------------------------------------------

namespace {

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A fixed piece of work that gauges how fast the host runs code like the
/// simulator's right now.  On a shared host the vCPU's speed swings: for
/// stretches of seconds to minutes the simulator runs up to 2x slower,
/// every workload alike.  A probe round -- 150k updates of a hash table of
/// 2^17 keys, its ~5 MB of nodes laid out as malloc would lay them but in
/// an arena of the probe's own, so the round does not depend on the state
/// of the program's heap -- slows by about the same factor at the same
/// moment (a pointer chase over 8 MB slows far more, an ALU chain hardly
/// at all).  Dividing a stretch of the workload's CPU time by the round
/// measured just before it cancels the host's swings and keeps the
/// program's own cost.
class SpeedProbe {
 public:
  /// About the CPU seconds of one round on an Intel Xeon vCPU in its fast
  /// stretches; normalised times are expressed as if every round had taken
  /// this long, so they read close to CPU seconds on such a host.
  static constexpr double kNominalS = 0.0025;

  SpeedProbe() : arena_(8u << 20) {}

  /// Run one round; its thread CPU seconds.
  double run() {
    const double t0 = thread_cpu_now();
    std::pmr::monotonic_buffer_resource nodes(arena_.data(), arena_.size(),
                                              std::pmr::null_memory_resource());
    std::pmr::unordered_map<std::uint64_t, Entry> table(&nodes);
    table.reserve(kKeys);
    std::uint64_t x = 3;
    for (int i = 0; i < kUpdates; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      checksum_ += ++table[(x >> 35) & (kKeys - 1)].count;  // keeps the work observable
    }
    return thread_cpu_now() - t0;
  }

 private:
  static constexpr std::uint64_t kKeys = 1u << 17;
  static constexpr int kUpdates = 150'000;
  /// 16 bytes, so that a node takes the 32 bytes a malloc'd one would.
  struct Entry {
    std::uint64_t count = 0;
    std::uint64_t padding = 0;
  };
  std::vector<std::byte> arena_;
  std::uint64_t checksum_ = 0;
};

/// A cell's CPU seconds, as measured and normalised.
struct CpuTime {
  double cpu_s = 0;
  double normalized_s = 0;
};

/// Normalises the CPU time of the thread running a cell: it runs a probe
/// round when the cell starts and again each time kProbeEveryS CPU seconds
/// have passed, and scales each stretch between rounds by kNominalS / the
/// round before it.  The rounds' own time is left out.  The clock is read
/// every kAllocsPerCheck calls to operator new, which the simulator makes
/// several times per microsecond.
class ProbeClock {
 public:
  static constexpr std::uint64_t kAllocsPerCheck = 1u << 12;
  static constexpr double kProbeEveryS = 0.2;

  /// Probe with `probe`, keeping every round's seconds in `rounds`.
  void attach(SpeedProbe* probe, std::vector<double>* rounds) {
    probe_ = probe;
    rounds_ = rounds;
  }

  /// Start timing a cell into `out`; returns the round measured at the start.
  double start(CpuTime* out) {
    out_ = nullptr;
    probe();
    out_ = out;
    return probe_s_;
  }
  void stop() {
    if (out_ == nullptr) return;
    account(thread_cpu_now());
    out_ = nullptr;
  }
  void on_alloc() {
    if (out_ != nullptr && ++allocs_ % kAllocsPerCheck == 0) check();
  }

 private:
  void check() {
    const double now = thread_cpu_now();
    if (now - since_ < kProbeEveryS) return;
    account(now);
    CpuTime* out = out_;
    out_ = nullptr;  // rounds_->push_back may allocate
    probe();
    out_ = out;
  }
  void account(double now) {
    out_->cpu_s += now - since_;
    out_->normalized_s += (now - since_) * SpeedProbe::kNominalS / probe_s_;
  }
  void probe() {
    probe_s_ = probe_->run();
    rounds_->push_back(probe_s_);
    since_ = thread_cpu_now();
  }

  SpeedProbe* probe_ = nullptr;
  CpuTime* out_ = nullptr;
  std::uint64_t allocs_ = 0;
  double probe_s_ = 0;
  double since_ = 0;
  std::vector<double>* rounds_ = nullptr;
};

thread_local ProbeClock t_probe_clock;

}  // namespace

// The replacement pair below allocates with malloc and frees with free;
// GCC cannot see that they belong together.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  t_probe_clock.on_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dyntrace;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds the process has used.  Unlike wall time it leaves out the
/// time the host ran something else (other processes, hypervisor steal).
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- spans -------------------------------------------------------------------

/// Host-time spans recorded around the driver's calls into the layers.  A
/// cell span is the parent of the calls made for that cell; spans stay in
/// memory and are written once, when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_recording(bool on) { recording_ = on; }

  void begin_cell(const std::string& name) {
    ++cell_;
    cell_name_ = name;
    cell_begin_ = Clock::now();
  }
  void end_cell() { record(cell_name_, cell_begin_, Clock::now(), /*is_cell=*/true); }

  /// Run `call`, add its host seconds to `totals[name]`, and record a span
  /// for it under the current cell when recording.
  void time(const char* name, std::map<std::string, double>& totals,
            const std::function<void()>& call) {
    const auto begin = Clock::now();
    call();
    const auto end = Clock::now();
    totals[name] += std::chrono::duration<double>(end - begin).count();
    record(name, begin, end, /*is_cell=*/false);
  }

  /// Chrome trace-event JSON (loadable in Perfetto): one complete event per
  /// span, timestamps in host microseconds since the run started, the cell
  /// id as the thread, plus the registry counters of the traced passes.
  std::string chrome_json(const std::map<std::string, double>& counters) const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const Span& span : spans_) {
      if (!first) out += ",";
      first = false;
      out += str::format(
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"cell\":%u}}",
          span.name.c_str(), span.is_cell ? "cell" : "call", span.cell, span.begin_us,
          span.end_us - span.begin_us, span.cell);
    }
    out += "],\"displayTimeUnit\":\"ms\",\"counters\":{";
    first = true;
    for (const auto& [name, value] : counters) {
      if (!first) out += ",";
      first = false;
      out += str::format("\"%s\":%.17g", name.c_str(), value);
    }
    out += "}}\n";
    return out;
  }

  std::size_t span_count() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    std::uint32_t cell = 0;
    double begin_us = 0;
    double end_us = 0;
    bool is_cell = false;
  };

  void record(const std::string& name, Clock::time_point begin, Clock::time_point end,
              bool is_cell) {
    if (!recording_) return;
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    spans_.push_back(Span{name, cell_, us(begin), us(end), is_cell});
  }

  Clock::time_point origin_;
  bool recording_ = false;
  std::uint32_t cell_ = 0;
  std::string cell_name_;
  Clock::time_point cell_begin_;
  std::vector<Span> spans_;
};

// --- one pass ----------------------------------------------------------------

/// One op's outcome.  Healthy cells carry the digests and simulated seconds
/// that run.py pins for the default seed.
struct CellRecord {
  std::string name;
  bool healthy = true;
  std::uint64_t trace_digest = 0;
  std::uint64_t stats_digest = 0;
  double sim_s = 0;
  double setup_cpu_s = 0;  ///< host CPU: the cell's set-up
  double setup_probe_s = 0;  ///< the probe round measured before the set-up
  CpuTime cpu;               ///< host CPU: the whole cell, set-up included
  std::string error;  ///< empty when the cell succeeded
};

struct Pass {
  double wall_s = 0;       ///< host: the whole pass
  double cpu_s = 0;        ///< host CPU: the whole pass
  double setup_s = 0;      ///< host: before each cell's first simulated event
  double setup_cpu_s = 0;  ///< host CPU: the same set-up
  double sim_s = 0;        ///< sim: the workload's headline simulated seconds
  std::map<std::string, double> layer_s;  ///< host seconds per timed call
  std::map<std::string, double> counts;   ///< per-layer counts
  std::map<std::string, double> report;   ///< workload-specific end-to-end figures
  std::vector<CellRecord> cells;
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  std::vector<std::string> errors;
};

struct RunContext {
  std::uint64_t seed = 42;
  bool tiny = false;
  bool traced = false;
  std::filesystem::path out_dir;
  Tracer* tracer = nullptr;
};

/// Registry counters the traced passes read back (the dpcl, fault and
/// control per-layer metrics).
const char* const kRegistryCounters[] = {
    "dpcl.requests",          "dpcl.retries",           "dpcl.dedup_hits",
    "dpcl.abandoned_nodes",   "fault.drops",            "fault.dups",
    "control.confsync_rounds", "control.overlay_rounds", "control.decisions",
};

/// The paper's IBM Power3 SP, grown node for node when a cell needs more
/// than its 1152 CPUs (plus one tool node).
std::optional<machine::MachineSpec> machine_for_cpus(int cpus) {
  machine::MachineSpec spec = machine::ibm_power3_sp();
  const int needed = (cpus + spec.cpus_per_node - 1) / spec.cpus_per_node + 1;
  if (needed <= spec.nodes) return std::nullopt;
  spec.nodes = needed;
  spec.name += "-x" + std::to_string(needed);
  return spec;
}

struct CellSpec {
  std::string name;
  const asci::AppSpec* app = nullptr;
  dynprof::Policy policy = dynprof::Policy::kNone;
  int nprocs = 1;
  double scale = 1.0;
  std::string fault_plan;  ///< empty = healthy cell
  /// The cell's sim_s is the Fig. 9 create+instrument time (otherwise the
  /// Fig. 7 post-initialization app time).
  bool instrument_metric = false;
};

void note_failure(Pass& pass, const std::string& name, const std::string& error,
                  std::uint64_t ops = 1) {
  pass.failed_ops += ops;
  pass.errors.push_back(name + ": " + error);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Called after a cell's run with the digest of its merged trace.
using AfterRun = std::function<void(dynprof::Launch&, std::uint64_t trace_digest, Pass&)>;

/// Run one Launch-based cell: set-up (app build, plan parse, Launch and
/// tool construction), the engine run, result collection, teardown.
void run_cell(const CellSpec& spec, const RunContext& ctx, Pass& pass,
              const AfterRun& after = {}) {
  Tracer& tracer = *ctx.tracer;
  CellRecord cell;
  cell.name = spec.name;
  cell.healthy = spec.fault_plan.empty();
  tracer.begin_cell(spec.name);
  cell.setup_probe_s = t_probe_clock.start(&cell.cpu);
  const auto t0 = Clock::now();
  const double c0 = cpu_now();
  try {
    asci::AppSpec app = *spec.app;  // widened past the paper's ceiling when needed
    if (spec.nprocs > app.max_procs) app.max_procs = spec.nprocs;
    dynprof::Launch::Options options;
    options.app = &app;
    options.params.nprocs = spec.nprocs;
    options.params.problem_scale = spec.scale;
    options.params.seed = ctx.seed;
    const bool adaptive = spec.policy == dynprof::Policy::kAdaptive;
    if (adaptive) {
      options.params.confsync_interval = 36;
      options.params.confsync_statistics = true;
    }
    options.policy = spec.policy;
    if (app.model != asci::AppSpec::Model::kOpenMP) options.machine = machine_for_cpus(spec.nprocs);
    options.sim_threads = 1;
    options.telemetry_level = ctx.traced ? telemetry::Level::kSpans : telemetry::Level::kOff;
    if (!spec.fault_plan.empty()) {
      fault::FaultPlan plan = fault::FaultPlan::parse(spec.fault_plan, spec.name);
      plan.seed = ctx.seed;
      options.fault = std::make_shared<fault::FaultInjector>(std::move(plan));
    }

    std::unique_ptr<dynprof::Launch> launch;
    tracer.time("dynprof.launch", pass.layer_s,
                [&] { launch = std::make_unique<dynprof::Launch>(std::move(options)); });

    // Dynamic and Adaptive cells drive the run through dynprof, as
    // dynprof::run_policy does; static policies start the job directly.
    std::unique_ptr<dynprof::DynprofTool> tool;
    std::unique_ptr<control::BudgetController> controller;
    if (adaptive || spec.policy == dynprof::Policy::kDynamic) {
      dynprof::DynprofTool::Options tool_options;
      if (adaptive) {
        std::vector<std::string> all_user;
        for (const auto& fn : app.symbols->all()) {
          if (!guide::is_runtime_module(fn.module)) all_user.push_back(fn.name);
        }
        tool_options.command_files = {{"list.txt", all_user}};
      } else {
        tool_options.command_files = {{"list.txt", app.dynamic_list}};
      }
      tool = std::make_unique<dynprof::DynprofTool>(*launch, std::move(tool_options));
      if (adaptive) {
        auto overlay = std::make_shared<control::StatsOverlay>(4);
        overlay->prepare(launch->process_count());
        overlay->set_job(launch->job_name());
        for (int pid = 0; pid < launch->process_count(); ++pid) {
          launch->vt(pid).set_stats_aggregator(overlay);
          control::install_probe_edit_applier(launch->vt(pid));
        }
        controller = std::make_unique<control::BudgetController>(control::ControllerOptions{});
        controller->attach(launch->vt(0), launch->staged());
      }
      tool->run_script(dynprof::parse_script("insert-file list.txt\nstart\nquit\n"));
    } else {
      launch->start();
    }
    cell.setup_cpu_s = cpu_now() - c0;
    pass.setup_s += seconds_since(t0);
    pass.setup_cpu_s += cell.setup_cpu_s;

    tracer.time("sim.run", pass.layer_s, [&] { launch->run_engine(); });

    const dynprof::Launch::Result result = launch->collect_result();
    if (tool != nullptr) {
      if (!tool->finished()) throw Error("dynprof did not finish its script");
      const dpcl::DpclApplication* dpcl_app = tool->application();
      if (dpcl_app != nullptr && !dpcl_app->lost_nodes().empty()) {
        throw Error(str::format("%zu node(s) abandoned", dpcl_app->lost_nodes().size()));
      }
    }
    if (launch->fault_injector() != nullptr &&
        !launch->fault_injector()->report().lost_ranks().empty()) {
      throw Error("the fault report lists lost ranks");
    }
    const double instrument_s =
        tool != nullptr ? sim::to_seconds(tool->create_and_instrument_time()) : 0.0;
    cell.sim_s = spec.instrument_metric ? instrument_s : result.app_seconds;
    pass.sim_s += cell.sim_s;
    if (spec.instrument_metric) {
      pass.report[cell.healthy ? "instrument_sim_s" : "instrument_ft_sim_s"] += instrument_s;
    }

    tracer.time("vt.merge", pass.layer_s, [&] { cell.trace_digest = launch->trace()->digest(); });
    cell.stats_digest = vt::stats_digest(launch->vt(0).statistics());

    pass.counts["sim.events"] += static_cast<double>(launch->parallel_engine().events_executed());
    pass.counts["vt.virtual_events"] += static_cast<double>(result.trace_events);
    pass.counts["vt.filtered_events"] += static_cast<double>(result.filtered_events);
    pass.counts["vt.records"] += static_cast<double>(launch->trace()->size());
    if (launch->world() != nullptr) {
      pass.counts["mpi.messages"] += static_cast<double>(launch->world()->total_messages());
    }
    if (ctx.traced) {
      const telemetry::Registry::Snapshot snap = launch->telemetry_registry().snapshot();
      for (const char* name : kRegistryCounters) {
        pass.counts[name] += static_cast<double>(snap.counter_value(name));
      }
    }
    if (after) after(*launch, cell.trace_digest, pass);

    tracer.time("dynprof.teardown", pass.layer_s, [&] {
      controller.reset();
      tool.reset();
      launch.reset();
    });
  } catch (const std::exception& e) {
    cell.error = e.what();
    note_failure(pass, spec.name, cell.error);
  }
  t_probe_clock.stop();
  tracer.end_cell();
  ++pass.ops;
  pass.cells.push_back(std::move(cell));
}

// --- workloads ---------------------------------------------------------------

std::string cell_name(const asci::AppSpec& app, const char* what, int nprocs) {
  return str::format("%s/%s/%d", app.name.c_str(), what, nprocs);
}

/// Smg98 at scale 0.05 under all six policies, a few rank counts.  The
/// 2048-rank cells alone take 6-8 s per pass on a 4-core host, which would
/// leave fewer than three passes in a run, so the sweep stops at 1024.
void fig7a_sweep(const RunContext& ctx, Pass& pass) {
  const std::vector<int> ranks = ctx.tiny ? std::vector<int>{8, 16}
                                          : std::vector<int>{256, 512, 1024};
  for (const int nprocs : ranks) {
    for (const dynprof::PolicyInfo& info : dynprof::policy_table()) {
      CellSpec spec;
      spec.name = cell_name(asci::smg98(), info.name, nprocs);
      spec.app = &asci::smg98();
      spec.policy = info.policy;
      spec.nprocs = nprocs;
      spec.scale = 0.05;
      run_cell(spec, ctx, pass);
    }
  }
}

/// A low-probability message-fault plan on the DPCL daemon channel; its
/// seed is replaced by the run's seed.
const char* const kDaemonFaultPlan =
    "drop channel=daemon prob=0.002\n"
    "dup channel=daemon prob=0.002\n";

/// Dynamic create+instrument (Figure 9) at scale 0.01: every MPI cell
/// healthy and under the fault plan, plus Umt98 as the single-image case.
void instrument_scaleout(const RunContext& ctx, Pass& pass) {
  const std::vector<int> ranks = ctx.tiny ? std::vector<int>{8}
                                          : std::vector<int>{256, 1024};
  for (const asci::AppSpec* app : {&asci::smg98(), &asci::sppm(), &asci::sweep3d()}) {
    for (const int nprocs : ranks) {
      for (const bool faulted : {false, true}) {
        CellSpec spec;
        spec.name = cell_name(*app, faulted ? "Dynamic-ft" : "Dynamic", nprocs);
        spec.app = app;
        spec.policy = dynprof::Policy::kDynamic;
        spec.nprocs = nprocs;
        spec.scale = 0.01;
        spec.instrument_metric = true;
        if (faulted) spec.fault_plan = kDaemonFaultPlan;
        run_cell(spec, ctx, pass);
      }
    }
  }
  CellSpec umt;
  umt.name = cell_name(asci::umt98(), "Dynamic", 8);
  umt.app = &asci::umt98();
  umt.policy = dynprof::Policy::kDynamic;
  umt.nprocs = 8;
  umt.scale = 0.01;
  umt.instrument_metric = true;
  run_cell(umt, ctx, pass);
}

/// FNV-1a over every field of an event stream, the hash TraceStore::digest
/// takes over the merged stream, so a decoded stream can be checked against
/// that digest record for record.
struct StreamHash {
  std::uint64_t h = 14695981039346656037ull;
  std::uint64_t records = 0;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(const vt::Event& e) {
    mix(static_cast<std::uint64_t>(e.time));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.pid)) << 32 |
        static_cast<std::uint32_t>(e.tid));
    mix(static_cast<std::uint64_t>(e.kind) << 32 | static_cast<std::uint32_t>(e.code));
    mix(static_cast<std::uint64_t>(e.aux));
    ++records;
  }
};

/// Sweep3d Full with in-memory shards; after each run (whose merged trace
/// run_cell has already drained for its digest) the trace is written as a v2
/// file, read back, and analysed.
void trace_volume(const RunContext& ctx, Pass& pass) {
  const std::vector<int> ranks = ctx.tiny ? std::vector<int>{8}
                                          : std::vector<int>{512, 1024};
  const AfterRun after = [&ctx](dynprof::Launch& launch, std::uint64_t trace_digest, Pass& p) {
    Tracer& tracer = *ctx.tracer;
    const vt::TraceStore& store = *launch.trace();
    const std::filesystem::path file =
        ctx.out_dir / str::format("trace-%d-%" PRIu64 ".dtrc", launch.process_count(), ctx.seed);
    tracer.time("vt.encode", p.layer_s, [&] { store.write_binary(file.string()); });
    const auto bytes = static_cast<double>(std::filesystem::file_size(file));
    StreamHash decoded;
    tracer.time("vt.decode", p.layer_s, [&] {
      auto cursor = vt::TraceStore::open_binary(file.string());
      vt::Event e;
      while (cursor->next(e)) decoded.add(e);
    });
    std::filesystem::remove(file);
    if (decoded.h != trace_digest || decoded.records != store.size()) {
      throw Error("the v2 file does not decode to the merged trace");
    }
    p.counts["vt.encoded_bytes"] += bytes;
    p.counts["vt.encoded_records"] += static_cast<double>(decoded.records);

    std::size_t report_chars = 0;
    analysis::CommMatrix matrix;
    analysis::LoadBalance balance;
    tracer.time("analysis.report", p.layer_s, [&] {
      report_chars = analysis::summary_report(store, launch.options().app->symbols.get()).size();
      matrix = analysis::communication_matrix(store);
      balance = analysis::load_balance(store);
    });
    if (report_chars == 0 || matrix.total() <= 0 ||
        balance.busy_seconds.size() != static_cast<std::size_t>(launch.process_count())) {
      throw Error("analysis reports are empty");
    }
  };
  for (const int nprocs : ranks) {
    CellSpec spec;
    spec.name = cell_name(asci::sweep3d(), "Full", nprocs);
    spec.app = &asci::sweep3d();
    spec.policy = dynprof::Policy::kFull;
    spec.nprocs = nprocs;
    spec.scale = ctx.tiny ? 0.05 : 0.1;
    run_cell(spec, ctx, pass, after);
  }
}

std::string svc_fn(int index) { return str::format("svc_fn_%02d", index); }

/// One session's command script: instrument, subscribe, confsync and report
/// commands drawn from the seed (the scenario adds attach and detach).
std::vector<service::Request> session_script(Rng& rng, int functions, int commands) {
  const auto pick = [&] {
    return svc_fn(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(functions))));
  };
  std::vector<service::Request> script;
  for (int c = 0; c < commands; ++c) {
    service::Request request;
    switch (rng.next_below(4)) {
      case 0: {
        request.kind = service::CommandKind::kInstrument;
        const int n = 1 + static_cast<int>(rng.next_below(3));
        for (int k = 0; k < n; ++k) request.functions.push_back(pick());
        break;
      }
      case 1:
        request.kind = service::CommandKind::kSubscribe;
        request.pattern = str::format(
            "svc_fn_%d*",
            static_cast<int>(rng.next_below(static_cast<std::uint64_t>((functions + 9) / 10))));
        break;
      case 2:
        request.kind = service::CommandKind::kConfsync;
        request.directives.push_back({rng.next_below(2) == 0, pick()});
        break;
      default:
        request.kind = service::CommandKind::kReport;
        break;
    }
    script.push_back(std::move(request));
  }
  return script;
}

double percentile_ms(std::vector<sim::TimeNs> latencies, double p) {
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  const auto index = static_cast<std::size_t>(p * static_cast<double>(latencies.size() - 1));
  return sim::to_seconds(latencies[index]) * 1e3;
}

/// Seed of the session scripts.  The run seed drives the target's jitter,
/// not the scripts: which instrument requests a script set makes decides a
/// handful of admission windows, and scripts drawn from seeds 1-6 swung the
/// host time of a pass from 1.2 to 7.5 s, while one script set under run
/// seeds 1-6 stayed within 5.2-6.5 s.
constexpr std::uint64_t kScriptSeed = 42;

/// service::run_scenario with one closed-loop driver per session
/// (pipeline depth 1) against an 8-rank target.
void service_10k(const RunContext& ctx, Pass& pass) {
  Tracer& tracer = *ctx.tracer;
  const int sessions = ctx.tiny ? 40 : 10'000;
  const int functions = 32;
  const int commands = 4;
  CellRecord cell;
  cell.name = str::format("svcapp/sessions/%d", sessions);
  tracer.begin_cell(cell.name);
  cell.setup_probe_s = t_probe_clock.start(&cell.cpu);

  service::ScenarioOptions options;
  options.ranks = 8;
  options.functions = functions;
  options.commands_per_session = commands;
  options.sessions = sessions;
  options.session_batch = 1;
  options.pipeline_depth = 1;
  options.sim_threads = 1;
  options.seed = ctx.seed;
  options.telemetry_level = ctx.traced ? telemetry::Level::kSpans : telemetry::Level::kOff;

  // Set-up: only the harness's own preparation, the session scripts.  One
  // preparation takes ~10 ms, too short to time once, so the pass prepares
  // them several times and keeps the fastest.
  std::vector<double> prepare_s;
  std::vector<double> prepare_cpu_s;
  for (int round = 0; round < 5; ++round) {
    const auto t0 = Clock::now();
    const double c0 = cpu_now();
    options.scripted_sessions.clear();
    options.scripted_sessions.reserve(static_cast<std::size_t>(sessions));
    for (int id = 0; id < sessions; ++id) {
      Rng rng(kScriptSeed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(id + 1)));
      options.scripted_sessions.push_back(session_script(rng, functions, commands));
    }
    prepare_s.push_back(seconds_since(t0));
    prepare_cpu_s.push_back(cpu_now() - c0);
  }
  cell.setup_cpu_s = *std::min_element(prepare_cpu_s.begin(), prepare_cpu_s.end());
  pass.setup_s += *std::min_element(prepare_s.begin(), prepare_s.end());
  pass.setup_cpu_s += cell.setup_cpu_s;

  service::ScenarioResult result;
  try {
    tracer.time("service.scenario", pass.layer_s,
                [&] { result = service::run_scenario(options); });
  } catch (const std::exception& e) {
    cell.error = e.what();
  }
  t_probe_clock.stop();
  tracer.end_cell();

  // Every command is an op; a missing response (an unanswered script) or a
  // status that is no answer fails it.
  const auto expected = static_cast<std::uint64_t>(sessions) * (commands + 2);
  std::uint64_t bad = 0;
  for (const auto& [status, n] : result.status_counts) {
    switch (status) {
      case service::Status::kError:
      case service::Status::kDaemonLost:
      case service::Status::kShutdown:
      case service::Status::kTimeout:
      case service::Status::kShed:
      case service::Status::kCanceled:
        bad += n;
        break;
      default:
        break;
    }
  }
  const std::uint64_t missing = expected > result.commands ? expected - result.commands : 0;
  pass.ops += expected;
  if (cell.error.empty() && !result.lost_ranks.empty()) cell.error = "target ranks lost";
  if (cell.error.empty() && bad + missing > 0) {
    cell.error = str::format("%" PRIu64 " failed and %" PRIu64 " unanswered command(s)", bad,
                             missing);
  }
  if (!cell.error.empty()) {
    note_failure(pass, cell.name, cell.error,
                 std::min(expected, std::max<std::uint64_t>(bad + missing, 1)));
  }

  const auto status_count = [&](service::Status s) {
    const auto it = result.status_counts.find(s);
    return it == result.status_counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  double latency_s = 0;
  for (const sim::TimeNs latency : result.latencies) latency_s += sim::to_seconds(latency);
  const double scenario_s = pass.layer_s["service.scenario"];
  pass.sim_s += latency_s;
  pass.report["sessions_per_s"] = scenario_s > 0 ? sessions / scenario_s : 0;
  pass.report["cmd_latency_p50_ms"] = percentile_ms(result.latencies, 0.50);
  pass.report["cmd_latency_p99_ms"] = percentile_ms(result.latencies, 0.99);
  pass.report["cmd_latency_samples"] = static_cast<double>(result.latencies.size());
  pass.counts["service.commands"] += static_cast<double>(result.commands);
  pass.counts["service.admits"] += status_count(service::Status::kAdmitted);
  pass.counts["service.degrades"] += status_count(service::Status::kDegraded);
  pass.counts["service.denials"] += status_count(service::Status::kDenied);
  pass.counts["service.shed_commands"] += static_cast<double>(result.shed_commands);
  pass.counts["service.windows"] += static_cast<double>(result.windows.size());

  cell.trace_digest = result.digest;
  cell.stats_digest = result.stats_digest;
  cell.sim_s = result.sim_seconds;
  pass.cells.push_back(std::move(cell));
}

using WorkloadFn = void (*)(const RunContext&, Pass&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"fig7a_sweep", fig7a_sweep},
      {"instrument_scaleout", instrument_scaleout},
      {"trace_volume", trace_volume},
      {"service_10k", service_10k},
  };
  return table;
}

// --- aggregation -------------------------------------------------------------

template <typename Get>
double median_of(const std::vector<Pass>& passes, Get get) {
  std::vector<double> values;
  values.reserve(passes.size());
  for (const Pass& pass : passes) values.push_back(get(pass));
  return median(values);
}

/// CPU seconds of a whole pass, as measured or normalised.
double pass_cpu_s(const Pass& pass, bool normalized) {
  double total = 0;
  for (const CellRecord& cell : pass.cells) {
    total += normalized ? cell.cpu.normalized_s : cell.cpu.cpu_s;
  }
  return total;
}

/// Normalised CPU seconds of a pass's set-up.
double normalized_setup_s(const Pass& pass) {
  double total = 0;
  for (const CellRecord& cell : pass.cells) {
    total += cell.setup_cpu_s * SpeedProbe::kNominalS / cell.setup_probe_s;
  }
  return total;
}

double lookup(const std::map<std::string, double>& map, const std::string& key) {
  const auto it = map.find(key);
  return it == map.end() ? 0.0 : it->second;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct MetricOut {
  std::string name;
  double value = 0;
  const char* unit = "";
  const char* domain = "";  ///< host | sim
};

std::string metrics_json(const std::vector<MetricOut>& metrics) {
  std::string out = "{";
  for (const MetricOut& m : metrics) {
    if (out.size() > 1) out += ",";
    out += str::format("\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"domain\":\"%s\"}",
                       m.name.c_str(), m.value, m.unit, m.domain);
  }
  return out + "}";
}

std::string json_string(std::string s) {
  std::replace(s.begin(), s.end(), '"', '\'');
  std::replace(s.begin(), s.end(), '\\', '/');
  std::replace(s.begin(), s.end(), '\n', ' ');
  return "\"" + s + "\"";
}

/// The same seed must give bit-identical cell outcomes in every pass,
/// traced or not; a cell that differs from the first pass fails.
void check_repeatable(const std::vector<CellRecord>& reference, Pass& pass) {
  for (std::size_t i = 0; i < pass.cells.size() && i < reference.size(); ++i) {
    const CellRecord& a = reference[i];
    const CellRecord& b = pass.cells[i];
    if (!a.error.empty() || !b.error.empty()) continue;
    if (a.trace_digest != b.trace_digest || a.stats_digest != b.stats_digest ||
        a.sim_s != b.sim_s) {
      note_failure(pass, b.name, "outcome differs between passes of one seed");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::int64_t seed = 42;
  double seconds = 25;
  std::int64_t trace = 0;
  std::string size = "full";
  std::string out_dir = ".";
  CliParser cli("perfbench_driver", "Run one dyntrace benchmark workload");
  cli.option_string("workload", "fig7a_sweep | instrument_scaleout | trace_volume | service_10k",
                    &workload)
      .option_int("seed", "workload seed", &seed)
      .option_double("seconds", "host seconds to measure for", &seconds)
      .option_int("trace", "1 = alternate traced passes for the per-layer metrics", &trace)
      .option_string("size", "full | tiny (tiny: a few ranks, for the benchmark's tests)", &size)
      .option_string("out-dir", "directory for the span file and temporary trace files", &out_dir);
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  const auto found = workloads().find(workload);
  if (found == workloads().end() || (size != "full" && size != "tiny") || seed < 0 ||
      (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "perfbench_driver: bad arguments (see --help)\n");
    return 2;
  }

  const auto origin = Clock::now();
  Tracer tracer(origin);
  RunContext ctx;
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.tiny = size == "tiny";
  ctx.out_dir = out_dir;
  ctx.tracer = &tracer;
  std::filesystem::create_directories(ctx.out_dir);
  SpeedProbe probe;
  std::vector<double> probe_rounds;
  t_probe_clock.attach(&probe, &probe_rounds);

  const auto run_pass = [&](bool traced) {
    ctx.traced = traced;
    tracer.set_recording(traced);
    Pass pass;
    const auto t0 = Clock::now();
    const double c0 = cpu_now();
    found->second(ctx, pass);
    pass.wall_s = seconds_since(t0);
    pass.cpu_s = cpu_now() - c0;
    // Hand the pass's freed heap back to the system, so every pass starts
    // from the same heap and peak_rss_mb is one pass's peak rather than
    // growing with the number of passes the budget allowed.
    malloc_trim(0);
    std::fprintf(stderr,
                 "  %s pass: %.3f s wall, %.3f s CPU (%.3f s normalised), %.4f s set-up CPU, "
                 "%" PRIu64 " op(s), %" PRIu64 " failed, peak RSS so far %.1f MB\n",
                 traced ? "traced" : "untraced", pass.wall_s, pass.cpu_s, pass_cpu_s(pass, true),
                 pass.setup_cpu_s, pass.ops, pass.failed_ops, peak_rss_mb());
    return pass;
  };

  // A pass starts only while it is expected to end within the budget (the
  // slowest pass so far is the estimate); full-size trace-0 runs make at
  // least three passes so the medians have something to choose from.
  const auto fits = [&](const std::vector<Pass>& done) {
    double slowest = 0;
    for (const Pass& p : done) slowest = std::max(slowest, p.wall_s);
    return seconds_since(origin) + slowest <= seconds;
  };
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  if (trace == 0) {
    const std::size_t min_passes = ctx.tiny ? 1 : 3;
    do {
      plain.push_back(run_pass(false));
    } while (plain.size() < min_passes || fits(plain));
  } else {
    // The first, cold pass warms up; then traced and untraced passes
    // alternate so both kinds see the same machine.
    plain.push_back(run_pass(false));
    do {
      traced.push_back(run_pass(true));
      if (!fits(traced)) break;
      plain.push_back(run_pass(false));
    } while (fits(traced));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  const std::vector<CellRecord> reference = plain.front().cells;
  for (std::vector<Pass>* group : {&plain, &traced}) {
    for (Pass& pass : *group) {
      check_repeatable(reference, pass);
      attempted += pass.ops;
      failed += pass.failed_ops;
      for (std::string& e : pass.errors) {
        if (errors.size() < 8) errors.push_back(std::move(e));
      }
    }
  }

  // Host figures are medians over the warm untraced passes: the first pass
  // pays for cold caches and a fresh heap.  The gated ones are normalised
  // by the probe rounds (see ProbeClock).
  const std::vector<Pass> warm(plain.size() > 1 ? plain.begin() + 1 : plain.begin(),
                               plain.end());
  const std::vector<MetricOut> end_to_end = {
      {"setup_s", median_of(warm, normalized_setup_s), "s", "host-cpu-norm"},
      {"cpu_s", median_of(warm, [](const Pass& p) { return pass_cpu_s(p, true); }), "s",
       "host-cpu-norm"},
      {"raw_cpu_s", median_of(warm, [](const Pass& p) { return pass_cpu_s(p, false); }), "s",
       "host-cpu"},
      {"probe_s", median(probe_rounds), "s", "host-cpu"},
      {"wall_s", median_of(warm, [](const Pass& p) { return p.wall_s; }), "s", "host"},
      {"setup_wall_s", median_of(warm, [](const Pass& p) { return p.setup_s; }), "s", "host"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "host"},
      {"sim_s", median_of(plain, [](const Pass& p) { return p.sim_s; }), "sim_s", "sim"},
  };

  // Workload-specific end-to-end figures (printed by run.py, not gated).
  std::vector<MetricOut> report;
  const auto from_report = [&](const char* name, const char* unit, const char* domain) {
    if (plain.front().report.count(name) == 0) return;
    report.push_back(
        {name, median_of(plain, [&](const Pass& p) { return lookup(p.report, name); }), unit,
         domain});
  };
  from_report("sessions_per_s", "1/s", "host");
  from_report("cmd_latency_p50_ms", "sim_ms", "sim");
  from_report("cmd_latency_p99_ms", "sim_ms", "sim");
  from_report("cmd_latency_samples", "count", "sim");
  from_report("instrument_sim_s", "sim_s", "sim");
  from_report("instrument_ft_sim_s", "sim_s", "sim");

  std::vector<MetricOut> per_layer;
  std::string spans_path;
  if (trace == 1) {
    const auto layer_s = [&](const char* key) {
      return median_of(traced, [&](const Pass& p) { return lookup(p.layer_s, key); });
    };
    const auto count = [&](const char* key) { return lookup(traced.front().counts, key); };
    const double run_s = layer_s("sim.run");
    const double events = count("sim.events");
    const double requests = count("dpcl.requests");
    const double records = count("vt.encoded_records");
    // Normalised CPU time, so the host's slow stretches do not pose as
    // tracing overhead.
    const auto normalized = [](const Pass& p) { return pass_cpu_s(p, true); };
    const double untraced_cpu = median_of(warm, normalized);
    const double traced_cpu = median_of(traced, normalized);
    per_layer = {
        {"dynprof.launch_s", layer_s("dynprof.launch"), "s", "host"},
        {"sim.run_s", run_s, "s", "host"},
        {"sim.events", events, "count", "sim"},
        {"sim.ns_per_event", events > 0 ? run_s / events * 1e9 : 0, "ns", "host"},
        {"vt.virtual_events", count("vt.virtual_events"), "count", "sim"},
        {"vt.filtered_events", count("vt.filtered_events"), "count", "sim"},
        {"mpi.messages", count("mpi.messages"), "count", "sim"},
        {"vt.records", count("vt.records"), "count", "sim"},
        {"vt.merge_s", layer_s("vt.merge"), "s", "host"},
        {"vt.encode_s", layer_s("vt.encode"), "s", "host"},
        {"vt.decode_s", layer_s("vt.decode"), "s", "host"},
        {"vt.bytes_per_event", records > 0 ? count("vt.encoded_bytes") / records : 0, "B", "sim"},
        {"analysis.report_s", layer_s("analysis.report"), "s", "host"},
        {"dpcl.requests", requests, "count", "sim"},
        {"dpcl.retries", count("dpcl.retries"), "count", "sim"},
        {"dpcl.dedup_hits", count("dpcl.dedup_hits"), "count", "sim"},
        {"dpcl.abandoned_nodes", count("dpcl.abandoned_nodes"), "count", "sim"},
        {"dpcl.retry_ratio", requests > 0 ? count("dpcl.retries") / requests : 0, "ratio", "sim"},
        {"fault.drops", count("fault.drops"), "count", "sim"},
        {"fault.dups", count("fault.dups"), "count", "sim"},
        {"control.confsync_rounds", count("control.confsync_rounds"), "count", "sim"},
        {"control.overlay_rounds", count("control.overlay_rounds"), "count", "sim"},
        {"control.decisions", count("control.decisions"), "count", "sim"},
        {"service.scenario_s", layer_s("service.scenario"), "s", "host"},
        {"service.commands", count("service.commands"), "count", "sim"},
        {"service.admits", count("service.admits"), "count", "sim"},
        {"service.degrades", count("service.degrades"), "count", "sim"},
        {"service.denials", count("service.denials"), "count", "sim"},
        {"service.shed_commands", count("service.shed_commands"), "count", "sim"},
        {"service.windows", count("service.windows"), "count", "sim"},
        {"telemetry.overhead_frac", untraced_cpu > 0 ? traced_cpu / untraced_cpu - 1 : 0,
         "ratio", "host-cpu-norm"},
    };
    std::map<std::string, double> counters;
    for (const char* name : kRegistryCounters) counters[name] = count(name);
    const std::filesystem::path path =
        ctx.out_dir / str::format("spans-%s-seed%" PRId64 ".json", workload.c_str(), seed);
    if (std::FILE* f = std::fopen(path.string().c_str(), "w")) {
      const std::string json = tracer.chrome_json(counters);
      const bool written = std::fwrite(json.data(), 1, json.size(), f) == json.size();
      if (std::fclose(f) == 0 && written) spans_path = path.string();
    }
    if (spans_path.empty()) {
      ++failed;
      errors.push_back("cannot write " + path.string());
    }
  }

  std::string cells = "[";
  for (const CellRecord& c : reference) {
    if (cells.size() > 1) cells += ",";
    cells += str::format(
        "{\"name\":\"%s\",\"healthy\":%s,\"ok\":%s,\"trace_digest\":\"%016" PRIx64
        "\",\"stats_digest\":\"%016" PRIx64 "\",\"sim_s\":%.17g}",
        c.name.c_str(), c.healthy ? "true" : "false", c.error.empty() ? "true" : "false",
        c.trace_digest, c.stats_digest, c.sim_s);
  }
  cells += "]";
  std::string pass_walls = "[";
  std::string pass_cpus = "[";
  for (const Pass& p : plain) {
    if (pass_walls.size() > 1) pass_walls += ",";
    if (pass_cpus.size() > 1) pass_cpus += ",";
    pass_walls += str::format("%.6f", p.wall_s);
    pass_cpus += str::format("%.6f", pass_cpu_s(p, true));
  }
  pass_walls += "]";
  pass_cpus += "]";
  std::string error_list = "[";
  for (const std::string& e : errors) {
    if (error_list.size() > 1) error_list += ",";
    error_list += json_string(e);
  }
  error_list += "]";

  std::printf(
      "{\"workload\":\"%s\",\"seed\":%" PRId64 ",\"size\":\"%s\",\"passes\":%zu,"
      "\"traced_passes\":%zu,\"pass_wall_s\":%s,\"pass_cpu_norm_s\":%s,\"attempted\":%" PRIu64
      ",\"failed\":%" PRIu64
      ",\"errors\":%s,\"end_to_end\":%s,\"report\":%s,\"per_layer\":%s,\"cells\":%s,"
      "\"spans\":%s,\"span_count\":%zu,\"env\":{\"nproc\":%u,\"compiler\":%s,"
      "\"build_type\":%s,\"sim_threads\":1}}\n",
      workload.c_str(), seed, size.c_str(), plain.size(), traced.size(), pass_walls.c_str(),
      pass_cpus.c_str(), attempted, failed,
      error_list.c_str(), metrics_json(end_to_end).c_str(), metrics_json(report).c_str(),
      metrics_json(per_layer).c_str(), cells.c_str(), json_string(spans_path).c_str(),
      tracer.span_count(), std::thread::hardware_concurrency(),
      json_string(PERFBENCH_COMPILER).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str());
  return failed == 0 ? 0 : 1;
}
