#include "vt/vtlib.hpp"

#include <algorithm>
#include <variant>

#include "support/common.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace dyntrace::vt {

namespace {

/// Software cost of VT_init itself (config parse, buffer setup).
constexpr sim::TimeNs kVtInitCost = sim::milliseconds(4);
/// Applying one filter directive against the symbol table.
constexpr sim::TimeNs kApplyDirectiveCost = sim::microseconds(3);

}  // namespace

void merge_stats(FuncStats& into, const FuncStats& from) {
  into.calls += from.calls;
  into.filtered += from.filtered;
  into.inclusive += from.inclusive;
  into.exclusive += from.exclusive;
  // 0 is the "no completed pair" identity for min; the combine stays
  // associative and commutative, so any reduction shape gives one answer.
  if (into.min_inclusive == 0) {
    into.min_inclusive = from.min_inclusive;
  } else if (from.min_inclusive != 0 && from.min_inclusive < into.min_inclusive) {
    into.min_inclusive = from.min_inclusive;
  }
  if (from.max_inclusive > into.max_inclusive) into.max_inclusive = from.max_inclusive;
}

void merge_stats(std::vector<FuncStats>& into, const std::vector<FuncStats>& from) {
  DT_ASSERT(into.size() == from.size(), "stat vector size mismatch: ", into.size(), " vs ",
            from.size());
  for (std::size_t i = 0; i < into.size(); ++i) merge_stats(into[i], from[i]);
}

std::int64_t nonzero_stat_count(const std::vector<FuncStats>& stats) {
  std::int64_t n = 0;
  for (const auto& s : stats) {
    if (s.calls != 0 || s.filtered != 0) ++n;
  }
  return n;
}

std::uint64_t stats_digest(const std::vector<FuncStats>& stats) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& s : stats) {
    mix(s.calls);
    mix(s.filtered);
    mix(static_cast<std::uint64_t>(s.inclusive));
    mix(static_cast<std::uint64_t>(s.exclusive));
    mix(static_cast<std::uint64_t>(s.min_inclusive));
    mix(static_cast<std::uint64_t>(s.max_inclusive));
  }
  return h;
}

const CompiledFilter& StagedUpdate::compiled(const image::SymbolTable& symbols) {
  if (compiled_for_ != &symbols || compiled_version_ != version) {
    compiled_ = CompiledFilter(symbols, program);
    compiled_for_ = &symbols;
    compiled_version_ = version;
  }
  return compiled_;
}

VtLib::VtLib(proc::SimProcess& process, std::shared_ptr<TraceStore> store, Options options)
    : process_(process),
      store_(std::move(store)),
      options_(std::move(options)),
      confsync_noise_(0xc0f5u ^ (static_cast<std::uint64_t>(process.pid()) * 0x9e3779b9u)) {
  DT_ASSERT(store_ != nullptr);
  shard_ = &store_->shard(process.pid());
  const std::size_t nfuncs = process_.image().symbols().size();
  registered_.assign(nfuncs, 0);
  stats_.assign(nfuncs, FuncStats{});
  // No up-front reserve: the buffer grows to buffer_records on demand and
  // keeps its capacity across mid-run flushes (VT_finalize releases it).
  // Reserving 512 KiB per rank that a short run never fills made a sweep's
  // peak RSS depend on where the heap placed those mostly untouched blocks.
}

void VtLib::link() {
  // The entry points forward to the API's coroutines rather than being
  // coroutines themselves: one frame per call, not two.
  using image::LibEntry;
  using Args = proc::LibraryRegistry::Args;
  auto& reg = process_.registry();
  reg.register_function(LibEntry::kVtInit,
                        [this](proc::SimThread& t, Args) { return vt_init(t); });
  reg.register_function(LibEntry::kVtBegin, [this](proc::SimThread& t, Args args) {
    DT_EXPECT(args.size() == 1, "VT_begin expects one argument");
    return vt_begin(t, static_cast<image::FunctionId>(args[0]));
  });
  reg.register_function(LibEntry::kVtEnd, [this](proc::SimThread& t, Args args) {
    DT_EXPECT(args.size() == 1, "VT_end expects one argument");
    return vt_end(t, static_cast<image::FunctionId>(args[0]));
  });
  reg.register_function(LibEntry::kVtTraceoff, [this](proc::SimThread& t, Args) {
    return vt_trace_switch(t, false);
  });
  reg.register_function(LibEntry::kVtTraceon, [this](proc::SimThread& t, Args) {
    return vt_trace_switch(t, true);
  });
  reg.register_function(LibEntry::kVtFinalize,
                        [this](proc::SimThread& t, Args) { return vt_finalize(t); });
  reg.register_function(LibEntry::kVtConfsync, [this](proc::SimThread& t, Args args) {
    return confsync(t, !args.empty() && args[0] != 0);
  });
}

sim::Coro<void> VtLib::vt_init(proc::SimThread& thread) {
  if (initialized_) co_return;  // idempotent, as in VT
  co_await thread.compute(kVtInitCost);
  // Read the configuration file and build the deactivation table (the
  // job compiled it once; this rank applies the delta by id).
  if (options_.config_filter != nullptr) filter_.apply(*options_.config_filter);
  initialized_ = true;
}

sim::Coro<void> VtLib::vt_trace_switch(proc::SimThread& thread, bool on) {
  if (on) {
    trace_on();
  } else {
    trace_off();
  }
  co_await thread.compute(costs().vt_call_overhead);
}

void VtLib::push_event(EventKind kind, proc::SimThread& thread, std::int32_t code,
                       std::int64_t aux) {
  Event e;
  e.time = process_.engine().now();
  e.pid = process_.pid();
  e.tid = thread.tid();
  e.kind = kind;
  e.code = code;
  e.aux = aux;
  buffer_.push_back(e);
  ++events_recorded_;
}

sim::Coro<void> VtLib::flush(proc::SimThread& thread) {
  if (buffer_.empty()) co_return;
  ++flushes_;
  co_await thread.compute(costs().vt_flush_per_record *
                          static_cast<sim::TimeNs>(buffer_.size()));
  shard_->append_batch(buffer_.data(), buffer_.size());
  buffer_.clear();
}

sim::Coro<void> VtLib::vt_begin(proc::SimThread& thread, image::FunctionId fn) {
  const machine::CostModel& c = costs();
  if (!initialized_) {
    // Calling VT before VT_init is unsafe in real VT (paper §3.4); we are
    // defensive: charge the call and drop the event.
    ++events_dropped_preinit_;
    co_await thread.compute(c.vt_call_overhead);
    co_return;
  }
  if (!tracing_) {
    ++events_dropped_traceoff_;
    co_await thread.compute(c.vt_call_overhead);
    co_return;
  }
  sim::TimeNs charge = c.vt_call_overhead;
  if (filter_.enabled()) {
    charge += c.vt_filter_lookup;
    if (filter_.deactivated(fn)) {
      // Early-out: no timestamp, no record.
      ++events_filtered_;
      ++stats_[fn].filtered;
      co_await thread.compute(charge);
      co_return;
    }
  }
  if (!registered_[fn]) {
    charge += c.vt_funcdef;  // lazy VT_funcdef on first encounter
    registered_[fn] = 1;
  }
  charge += c.vt_timestamp + c.vt_record;
  co_await thread.compute(charge);
  push_event(EventKind::kEnter, thread, static_cast<std::int32_t>(fn), 0);
  const auto tid = static_cast<std::size_t>(thread.tid());
  if (enter_stacks_.size() <= tid) enter_stacks_.resize(tid + 1);
  enter_stacks_[tid].push_back(Frame{fn, process_.engine().now(), 0});
  ++stats_[fn].calls;
  if (buffer_.size() >= options_.buffer_records) co_await flush(thread);
}

sim::Coro<void> VtLib::vt_end(proc::SimThread& thread, image::FunctionId fn) {
  const machine::CostModel& c = costs();
  if (!initialized_) {
    ++events_dropped_preinit_;
    co_await thread.compute(c.vt_call_overhead);
    co_return;
  }
  if (!tracing_) {
    ++events_dropped_traceoff_;
    co_await thread.compute(c.vt_call_overhead);
    co_return;
  }
  sim::TimeNs charge = c.vt_call_overhead;
  if (filter_.enabled()) {
    charge += c.vt_filter_lookup;
    if (filter_.deactivated(fn)) {
      ++events_filtered_;
      ++stats_[fn].filtered;
      co_await thread.compute(charge);
      co_return;
    }
  }
  if (!registered_[fn]) {
    // Lazy VT_funcdef can be triggered by an *exit* probe: when dynprof
    // patches probes into a running application, the first probe to fire
    // for a function may be its exit.
    charge += c.vt_funcdef;
    registered_[fn] = 1;
  }
  charge += c.vt_timestamp + c.vt_record;
  co_await thread.compute(charge);
  push_event(EventKind::kLeave, thread, static_cast<std::int32_t>(fn), 0);
  const auto tid = static_cast<std::size_t>(thread.tid());
  if (tid < enter_stacks_.size()) {
    // Unwind to the matching frame: mismatched nesting (a probe removed
    // mid-run between enter and exit, or an exit whose enter was
    // filtered) must not leave stale frames pinned on the stack, or
    // inclusive time for this thread is corrupted forever after.
    auto& stack = enter_stacks_[tid];
    for (std::size_t i = stack.size(); i-- > 0;) {
      if (stack[i].fn == fn) {
        const sim::TimeNs inclusive = process_.engine().now() - stack[i].enter;
        const sim::TimeNs child = stack[i].child;
        FuncStats& s = stats_[fn];
        s.inclusive += inclusive;
        s.exclusive += std::max<sim::TimeNs>(0, inclusive - child);
        if (s.min_inclusive == 0 || inclusive < s.min_inclusive) s.min_inclusive = inclusive;
        if (inclusive > s.max_inclusive) s.max_inclusive = inclusive;
        stack.resize(i);  // drop the frame and any stale frames above it
        // Credit the enclosing frame so its exclusive time excludes us.
        if (!stack.empty()) stack.back().child += inclusive;
        break;
      }
    }
  }
  if (buffer_.size() >= options_.buffer_records) co_await flush(thread);
}

sim::Coro<void> VtLib::record(proc::SimThread& thread, EventKind kind, std::int32_t code,
                              std::int64_t aux) {
  if (!initialized_) {
    ++events_dropped_preinit_;
    co_return;
  }
  if (!tracing_) {
    ++events_dropped_traceoff_;
    co_return;
  }
  const machine::CostModel& c = costs();
  co_await thread.compute(c.vt_timestamp + c.vt_record);
  push_event(kind, thread, code, aux);
  if (buffer_.size() >= options_.buffer_records) co_await flush(thread);
}

sim::Coro<void> VtLib::vt_finalize(proc::SimThread& thread) {
  if (!initialized_) co_return;
  co_await flush(thread);
  // The records now live in the shard alone.  Give back the buffer's
  // capacity, which a rank that never filled it sized to its whole share
  // of the trace, rather than hold it until the Launch is destroyed.  A
  // later VT_init grows it again on demand.
  std::vector<Event>().swap(buffer_);
  initialized_ = false;
}

sim::TimeNs VtLib::steady_call_cost(image::FunctionId fn) const {
  const machine::CostModel& c = costs();
  if (!initialized_ || !tracing_) return c.vt_call_overhead;
  sim::TimeNs cost = c.vt_call_overhead;
  if (filter_.enabled()) {
    cost += c.vt_filter_lookup;
    if (filter_.deactivated(fn)) return cost;
  }
  // Active path: timestamp + record + the flush cost this record will pay
  // when the buffer drains.
  return cost + c.vt_timestamp + c.vt_record + c.vt_flush_per_record;
}

sim::TimeNs VtLib::active_call_cost() const {
  const machine::CostModel& c = costs();
  sim::TimeNs cost = c.vt_call_overhead;
  if (filter_.enabled()) cost += c.vt_filter_lookup;
  return cost + c.vt_timestamp + c.vt_record + c.vt_flush_per_record;
}

namespace {

/// Steady-state execution cost of one snippet body: VT entry points priced
/// through the library's current state, other leaves are free in steady
/// state (flags/callbacks only fire during the instrumentation protocol).
sim::TimeNs snippet_steady_cost(const VtLib& vt, const image::Snippet& snippet) {
  struct Visitor {
    const VtLib& vt;
    sim::TimeNs operator()(const image::NoOp&) const { return 0; }
    sim::TimeNs operator()(const image::CallLibOp& op) const {
      if ((op.entry == image::LibEntry::kVtBegin || op.entry == image::LibEntry::kVtEnd) &&
          !op.args.empty()) {
        return vt.steady_call_cost(static_cast<image::FunctionId>(op.args[0]));
      }
      return 0;
    }
    sim::TimeNs operator()(const image::SequenceOp& op) const {
      sim::TimeNs total = 0;
      for (const auto& item : op.items) total += snippet_steady_cost(vt, *item);
      return total;
    }
    sim::TimeNs operator()(const image::SpinUntilOp&) const { return 0; }
    sim::TimeNs operator()(const image::CallbackOp&) const { return 0; }
  };
  return std::visit(Visitor{vt}, snippet.node());
}

}  // namespace

sim::TimeNs VtLib::steady_pair_overhead(image::FunctionId fn) const {
  const machine::CostModel& c = costs();
  const image::ProgramImage& img = process_.image();
  const image::ProbeSummary& probes = img.summary(fn);
  sim::TimeNs total = 0;
  for (auto where : {image::ProbeWhere::kEntry, image::ProbeWhere::kExit}) {
    if (!probes.base_trampoline[static_cast<std::size_t>(where)]) continue;
    total += img.trampoline_overhead(fn, where, c);
    for (const auto& probe : img.probe_point(fn, where).minis) {
      if (probe.active) total += snippet_steady_cost(*this, *probe.snippet);
    }
  }
  if (probes.static_instrumented) {
    // Compiled-in VT_begin + VT_end (no trampolines on this path).
    total += 2 * steady_call_cost(fn);
  }
  return total;
}

void VtLib::note_synthetic_pairs(image::FunctionId fn, std::uint64_t pairs,
                                 sim::TimeNs inclusive_each, int tid) {
  // Mirror vt_begin's three suppression counters: pre-init and trace-off
  // drops are not filter-table hits, and conflating them skews the
  // Full-Off vs None accounting.
  if (!initialized_) {
    events_dropped_preinit_ += 2 * pairs;
    return;
  }
  if (!tracing_) {
    events_dropped_traceoff_ += 2 * pairs;
    return;
  }
  if (filter_.enabled() && filter_.deactivated(fn)) {
    events_filtered_ += 2 * pairs;
    if (fn < stats_.size()) stats_[fn].filtered += 2 * pairs;
    return;
  }
  synthetic_events_ += 2 * pairs;
  if (fn < stats_.size()) {
    const sim::TimeNs total = inclusive_each * static_cast<sim::TimeNs>(pairs);
    FuncStats& s = stats_[fn];
    s.calls += pairs;
    s.inclusive += total;
    s.exclusive += total;  // aggregate pairs are leaves: no instrumented children
    if (pairs > 0) {
      if (s.min_inclusive == 0 || inclusive_each < s.min_inclusive)
        s.min_inclusive = inclusive_each;
      if (inclusive_each > s.max_inclusive) s.max_inclusive = inclusive_each;
    }
    // Credit the enclosing frame (if the caller told us which thread the
    // pairs ran on) so its exclusive time excludes the aggregate children.
    if (tid >= 0) {
      const auto t = static_cast<std::size_t>(tid);
      if (t < enter_stacks_.size() && !enter_stacks_[t].empty())
        enter_stacks_[t].back().child += total;
    }
  }
}

sim::Coro<void> VtLib::confsync(proc::SimThread& thread, bool write_statistics) {
  DT_EXPECT(initialized_, "VT_confsync before VT_init");
  ++confsyncs_;
  telemetry::Registry& reg = telemetry::current();
  const telemetry::Metrics& tm = reg.metrics();
  reg.add(tm.control_confsync_rounds);
  const auto track = static_cast<std::uint32_t>(rank_ != nullptr ? rank_->rank() : 0);
  if (reg.spans_enabled()) reg.name_track(track, str::format("rank %u", track));
  // RAII span: a rank the fault plan kills mid-confsync has its coroutine
  // frame destroyed rather than resumed, and the destructor still closes
  // the span at the frame's teardown time.
  telemetry::ScopedSpan span(
      reg, tm.span_confsync, track,
      [](const void* ctx) { return static_cast<const sim::Engine*>(ctx)->now(); },
      &thread.engine());
  const machine::CostModel& c = costs();
  // Fixed library bookkeeping plus this process's share of OS scheduling
  // noise; the barrier below waits for the *slowest* rank, so the job-wide
  // cost grows with the maximum over P noise samples (~ln P).
  co_await thread.compute(c.vt_confsync_entry +
                          static_cast<sim::TimeNs>(confsync_noise_.exponential(
                              static_cast<double>(c.vt_confsync_noise_mean))));

  const bool is_root = (rank_ == nullptr) || rank_->rank() == 0;

  if (is_root && break_handler_) {
    // configuration_break(): the monitoring tool's breakpoint.  The handler
    // may stage a filter update and returns a modelled user-interaction
    // delay (zero when driven by a script).
    const sim::TimeNs interaction = break_handler_(*this);
    if (interaction > 0) co_await thread.compute(interaction);
  }

  // Distribute the staged update (rank 0 -> everyone), then apply.  Only
  // the root can inspect the staged program *before* the broadcast -- a
  // non-root rank learns of it by receiving the broadcast, which cannot
  // arrive before the root staged it (the breakpoint happens-before the
  // root's send).  Non-root ranks forward using the header size, a minor
  // under-estimate of wire time when a change is in flight.
  std::int64_t payload = 8;  // version header
  if (is_root && staged_ && staged_->version > applied_version_) {
    payload += serialized_size(staged_->program) +
               8 * static_cast<std::int64_t>(staged_->probe_removals.size());
  }
  if (rank_ != nullptr) {
    co_await rank_->bcast(thread, 0, payload);
  }
  if (staged_ && staged_->version > applied_version_) {
    if (!staged_->program.empty()) {
      co_await thread.compute(kApplyDirectiveCost *
                              static_cast<sim::TimeNs>(staged_->program.size()));
      filter_.apply(staged_->compiled(process_.image().symbols()));
    }
    if (!staged_->probe_removals.empty() && apply_edits_handler_) {
      // Probe removal against this process's image; the handler reports
      // the patch time (DPCL pokes + suspend/resume) to charge.
      const sim::TimeNs patch_time = apply_edits_handler_(*this, staged_->probe_removals);
      if (patch_time > 0) co_await thread.compute(patch_time);
    }
    applied_version_ = staged_->version;
  }

  if (write_statistics) {
    if (aggregator_) {
      // Control-plane overlay: interior ranks merge records on the way up,
      // so the root's work is O(nonzero records), not O(P * nfuncs).
      co_await aggregator_->reduce(thread, *this);
    } else {
      // Legacy VT path (the paper's Figure 8b): every rank ships its whole
      // table straight to rank 0, which formats and writes all P of them.
      const auto nfuncs = static_cast<std::int64_t>(stats_.size());
      if (rank_ != nullptr) {
        co_await rank_->gather(thread, 0, nfuncs * c.vt_stats_bytes_per_func,
                               mpi::GatherAlgo::kLinear);
      }
      if (is_root) {
        const std::int64_t ranks = rank_ != nullptr ? rank_->size() : 1;
        co_await thread.compute(c.vt_stats_write_per_record * nfuncs * ranks);
      }
    }
  }

  if (rank_ != nullptr) {
    co_await rank_->barrier(thread);
  }
  co_await thread.gate();
}

}  // namespace dyntrace::vt
