// The Vampirtrace instrumentation library (one instance per process).
//
// Implements the paper's cost structure exactly:
//   * VT_begin/VT_end on an *active* symbol: library call overhead +
//     (first call only) symbol registration + timestamp + record append,
//     with buffer flushes charged when the event buffer fills;
//   * on a *deactivated* symbol (Full-Off / Subset policies): library call
//     overhead + one filter-table lookup, then early-out -- "a majority of
//     the overhead due to the call is avoided" (§4.2);
//   * an untouched function (None / the uninstrumented part of Dynamic):
//     VT is never entered, cost is exactly zero.
//
// VT_confsync implements dynamic control of instrumentation (§5): at a safe
// point, rank 0 hits configuration_break() (where a monitoring tool may
// stage a new filter program), the update is broadcast, applied everywhere,
// optionally followed by a statistics reduction + dump, and finished with a
// barrier.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mpi/world.hpp"
#include "proc/process.hpp"
#include "support/rng.hpp"
#include "vt/event.hpp"
#include "vt/filter.hpp"
#include "vt/trace_store.hpp"

namespace dyntrace::vt {

/// A configuration update staged for distribution by the next VT_confsync.
/// Shared by all VtLib instances of a job (rank 0 reads it at its
/// configuration_break; the broadcast is simulated with real messages and
/// the payload applied from here).  Either half may be empty.
struct StagedUpdate {
  FilterProgram program;
  /// Functions whose probes are removed entirely.  Unlike a filter
  /// directive, a removed probe costs exactly zero at runtime -- the control
  /// plane's strongest actuator.
  std::vector<image::FunctionId> probe_removals;
  std::uint64_t version = 0;  ///< bumped by each stage() call

  /// `program` compiled against the job's symbols, once per version: the
  /// first rank to apply a version compiles it and the others reuse it.
  const CompiledFilter& compiled(const image::SymbolTable& symbols);

 private:
  CompiledFilter compiled_;
  const image::SymbolTable* compiled_for_ = nullptr;
  std::uint64_t compiled_version_ = 0;
};

/// Per-function statistics the VT library accumulates (and VT_confsync's
/// statistics path reduces to rank 0).  All fields are mergeable: counts
/// and times sum, min/max combine -- the property the control plane's
/// tree-reduction overlay relies on.  Times are integral nanoseconds, so a
/// tree-shaped merge is bit-identical to a linear fold, not just ULP-close.
struct FuncStats {
  std::uint64_t calls = 0;        ///< completed enter/leave pairs recorded
  std::uint64_t filtered = 0;     ///< probe executions suppressed by the filter table
  sim::TimeNs inclusive = 0;      ///< total wall time between enter and leave
  sim::TimeNs exclusive = 0;      ///< inclusive minus instrumented children
  sim::TimeNs min_inclusive = 0;  ///< fastest recorded pair (0 when calls == 0)
  sim::TimeNs max_inclusive = 0;  ///< slowest recorded pair
};

/// Merge one record into another (the tree-reduction combine operation).
void merge_stats(FuncStats& into, const FuncStats& from);
/// Element-wise merge of two per-function vectors (sizes must match).
void merge_stats(std::vector<FuncStats>& into, const std::vector<FuncStats>& from);
/// Records worth serializing/writing (calls or filtered counts present).
std::int64_t nonzero_stat_count(const std::vector<FuncStats>& stats);
/// FNV-1a fingerprint of a statistics table (field-by-field); equal iff the
/// tables are bit-identical.  Used by the parallel determinism tests.
std::uint64_t stats_digest(const std::vector<FuncStats>& stats);

class VtLib;

/// Strategy hook for VT_confsync's statistics path.  When installed, it
/// replaces the default flat gather-to-rank-0: every rank calls reduce()
/// at the same point of the protocol, and the implementation moves +
/// combines the records (see control::StatsOverlay for the k-ary tree).
class StatsAggregator {
 public:
  virtual ~StatsAggregator() = default;
  virtual sim::Coro<void> reduce(proc::SimThread& thread, VtLib& vt) = 0;
};

class VtLib {
 public:
  struct Options {
    /// The VT configuration file's directives, compiled against the
    /// process's symbols and applied at VT_init (null = no config file =
    /// the Full policy: no lookups at all).  A job shares one compilation.
    std::shared_ptr<const CompiledFilter> config_filter;
    /// Event-buffer capacity in records; a full buffer flushes to the
    /// trace store, charging flush time.
    std::size_t buffer_records = 16384;
  };

  VtLib(proc::SimProcess& process, std::shared_ptr<TraceStore> store, Options options);
  VtLib(const VtLib&) = delete;
  VtLib& operator=(const VtLib&) = delete;

  /// Register VT_init / VT_begin / VT_end / VT_finalize in the process's
  /// library registry so snippets and static instrumentation can call them.
  void link();

  proc::SimProcess& process() { return process_; }
  const proc::SimProcess& process() const { return process_; }
  bool initialized() const { return initialized_; }

  /// Wire the MPI rank used for confsync coordination (MPI apps only).
  void set_rank(mpi::Rank* rank) { rank_ = rank; }
  mpi::Rank* mpi_rank() const { return rank_; }

  /// Share the confsync update channel across the job's VtLibs.
  void set_staged_update(std::shared_ptr<StagedUpdate> staged) { staged_ = std::move(staged); }

  /// Replace the statistics path's flat gather with an aggregation overlay
  /// (nullptr restores the default).  The aggregator must be shared by all
  /// VtLibs of the job, like the staged update.
  void set_stats_aggregator(std::shared_ptr<StatsAggregator> aggregator) {
    aggregator_ = std::move(aggregator);
  }

  /// Handler applying staged probe removals to this process's image at the
  /// safe point (installed by the control plane's probe actuator).  Returns
  /// the patch time to charge to the applying thread.
  using ApplyEditsHandler =
      std::function<sim::TimeNs(VtLib&, const std::vector<image::FunctionId>&)>;
  void set_apply_edits_handler(ApplyEditsHandler handler) {
    apply_edits_handler_ = std::move(handler);
  }

  /// Handler invoked at rank 0's configuration_break() inside VT_confsync
  /// (the monitoring tool's breakpoint).  Returns the wall-clock-equivalent
  /// user interaction delay to model (0 for scripted runs).
  using BreakHandler = std::function<sim::TimeNs(VtLib&)>;
  void set_break_handler(BreakHandler handler) { break_handler_ = std::move(handler); }

  // --- the VT API -----------------------------------------------------------

  sim::Coro<void> vt_init(proc::SimThread& thread);
  sim::Coro<void> vt_begin(proc::SimThread& thread, image::FunctionId fn);
  sim::Coro<void> vt_end(proc::SimThread& thread, image::FunctionId fn);
  sim::Coro<void> vt_finalize(proc::SimThread& thread);

  /// VT_traceoff / VT_traceon: runtime master switch for event collection.
  /// While off, begin/end/record drop events after the library-call
  /// overhead (cheaper than a deactivated symbol: no table lookup), and
  /// statistics stop accumulating.  Used by applications to blank out
  /// uninteresting phases.
  void trace_off() { tracing_ = false; }
  void trace_on() { tracing_ = true; }
  bool tracing() const { return tracing_; }
  /// The linked VT_traceon/VT_traceoff entry points: switch, then charge
  /// the library-call overhead.
  sim::Coro<void> vt_trace_switch(proc::SimThread& thread, bool on);

  /// Record a non-subroutine event (MPI wrapper / OpenMP runtime events);
  /// charges timestamp + record + amortised flush cost.
  sim::Coro<void> record(proc::SimThread& thread, EventKind kind, std::int32_t code,
                         std::int64_t aux);

  /// VT_confsync (§5).  `write_statistics` enables the experiment-3 path:
  /// per-function statistics are gathered to rank 0 and written out.
  sim::Coro<void> confsync(proc::SimThread& thread, bool write_statistics = false);

  // --- aggregate-call support -------------------------------------------------
  //
  // The workload models execute hot leaf functions millions of times; they
  // run the full probe protocol once and charge the remaining calls in
  // aggregate (asci::AppContext::leaf_repeat).  These queries expose the
  // library's steady-state per-call cost so the aggregate charge is exact.

  /// Cost of one VT_begin *or* VT_end call for `fn` in the current state
  /// (assumes the symbol is already registered; includes the amortised
  /// trace-flush share when a record would be appended).
  sim::TimeNs steady_call_cost(image::FunctionId fn) const;

  /// Cost of one VT_begin/VT_end on the *active* path in the current
  /// library state, regardless of whether `fn` is currently deactivated --
  /// what a call would cost if the filter let it through.  The control
  /// plane's estimator uses this to project reactivation cost.
  sim::TimeNs active_call_cost() const;

  /// Steady-state instrumentation overhead of one enter/exit pair of `fn`
  /// in the current image + library state: trampolines, snippet bodies
  /// (VT_begin/VT_end calls priced by steady_call_cost), and the static
  /// instrumentation path.  Zero for an untouched function.
  sim::TimeNs steady_pair_overhead(image::FunctionId fn) const;

  /// True if a VT_begin/VT_end for `fn` would append a record now.
  bool records(image::FunctionId fn) const;

  /// Account `pairs` enter/leave pairs executed in aggregate: updates call
  /// statistics and the would-have-been-traced event counter without
  /// materialising records.  When `tid` names a live thread, the pairs'
  /// inclusive time is also credited to the enclosing frame's child time
  /// so the parent's exclusive time stays exact.
  void note_synthetic_pairs(image::FunctionId fn, std::uint64_t pairs,
                            sim::TimeNs inclusive_each, int tid = -1);

  /// Events that would exist in the trace including aggregated ones (the
  /// paper's trace-size motivation is reported from this).
  std::uint64_t virtual_events() const { return events_recorded_ + synthetic_events_; }

  // --- introspection ----------------------------------------------------------

  FilterTable& filter() { return filter_; }
  const FilterTable& filter() const { return filter_; }

  using FuncStats = vt::FuncStats;
  const std::vector<FuncStats>& statistics() const { return stats_; }

  /// Open enter-frames on a thread's statistics stack (0 for unknown
  /// threads).  A balanced instrumentation stream leaves this at 0 between
  /// top-level calls -- what the deactivate→reactivate regression asserts.
  std::size_t enter_stack_depth(int tid) const {
    const auto t = static_cast<std::size_t>(tid);
    return t < enter_stacks_.size() ? enter_stacks_[t].size() : 0;
  }

  std::uint64_t events_recorded() const { return events_recorded_; }
  std::uint64_t synthetic_pairs() const { return synthetic_events_ / 2; }
  std::uint64_t events_filtered() const { return events_filtered_; }
  std::uint64_t events_dropped_preinit() const { return events_dropped_preinit_; }
  std::uint64_t events_dropped_traceoff() const { return events_dropped_traceoff_; }
  std::uint64_t flushes() const { return flushes_; }
  /// Records the event buffer has room for (0 once VT_finalize released it).
  std::size_t buffer_capacity() const { return buffer_.capacity(); }
  std::uint64_t confsyncs() const { return confsyncs_; }

 private:
  sim::Coro<void> flush(proc::SimThread& thread);
  void push_event(EventKind kind, proc::SimThread& thread, std::int32_t code, std::int64_t aux);
  const machine::CostModel& costs() const { return process_.cluster().spec().costs; }

  proc::SimProcess& process_;
  std::shared_ptr<TraceStore> store_;
  /// This process's shard of the store; flushes append here so the hot
  /// path never touches shared store state (one writer per shard).
  TraceShard* shard_ = nullptr;
  Options options_;

  bool initialized_ = false;
  bool tracing_ = true;
  std::uint64_t events_dropped_traceoff_ = 0;
  FilterTable filter_;
  std::vector<Event> buffer_;
  std::vector<std::uint8_t> registered_;  ///< per-function: VT_funcdef done

  // Per-thread stacks of open enter-frames for inclusive/exclusive stats.
  // `child` accumulates the inclusive time of completed instrumented
  // children, so the leave can compute exclusive = inclusive - child.
  struct Frame {
    image::FunctionId fn = 0;
    sim::TimeNs enter = 0;
    sim::TimeNs child = 0;
  };
  std::vector<std::vector<Frame>> enter_stacks_;
  std::vector<FuncStats> stats_;

  mpi::Rank* rank_ = nullptr;
  Rng confsync_noise_{0xc0f5u};  ///< re-seeded per process in the constructor
  std::shared_ptr<StagedUpdate> staged_;
  std::shared_ptr<StatsAggregator> aggregator_;
  std::uint64_t applied_version_ = 0;
  BreakHandler break_handler_;
  ApplyEditsHandler apply_edits_handler_;

  std::uint64_t events_recorded_ = 0;
  std::uint64_t synthetic_events_ = 0;
  std::uint64_t events_filtered_ = 0;
  std::uint64_t events_dropped_preinit_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t confsyncs_ = 0;
};

}  // namespace dyntrace::vt
