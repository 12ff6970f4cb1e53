#include "proc/process.hpp"

#include <cstdio>

#include "support/common.hpp"

namespace dyntrace::proc {

// ---------------------------------------------------------------------------
// LibraryRegistry
// ---------------------------------------------------------------------------

void LibraryRegistry::register_function(image::LibEntry entry, LibFunction fn) {
  DT_ASSERT(fn != nullptr);
  DT_ASSERT(entry != image::LibEntry::kCustom, "kCustom names no slot");
  entries_[static_cast<std::size_t>(entry)] = std::move(fn);
}

void LibraryRegistry::register_function(std::string_view name, LibFunction fn) {
  const image::LibEntry entry = image::lib_entry(name);
  if (entry != image::LibEntry::kCustom) {
    register_function(entry, std::move(fn));
    return;
  }
  DT_ASSERT(fn != nullptr);
  const auto it = custom_.find(name);
  if (it != custom_.end()) {
    it->second = std::move(fn);
  } else {
    custom_.emplace(std::string(name), std::move(fn));
  }
}

const LibraryRegistry::LibFunction* LibraryRegistry::find(std::string_view name) const {
  const image::LibEntry entry = image::lib_entry(name);
  if (entry != image::LibEntry::kCustom) return find(entry);
  const auto it = custom_.find(name);
  return it == custom_.end() ? nullptr : &it->second;
}

std::size_t LibraryRegistry::size() const {
  std::size_t n = custom_.size();
  for (const auto& fn : entries_) n += fn ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// SimThread
// ---------------------------------------------------------------------------

SimThread::SimThread(SimProcess& process, int tid, int cpu)
    : process_(process), tid_(tid), cpu_(cpu) {}

sim::Coro<void> SimThread::compute_after_resume(sim::TimeNs work) {
  while (process_.suspended()) co_await process_.resumed_.wait();
  co_await compute(work);
}

std::coroutine_handle<> SimThread::ComputeAwaiter::await_suspend(std::coroutine_handle<> h) {
  SimThread& t = thread_;
  if (t.process_.suspended()) {
    rest_ = t.compute_after_resume(work_);
    return rest_.await_suspend(h);
  }
  sim::Engine& eng = t.engine();
  DT_ASSERT(!t.sleep_.has_value(), "thread already sleeping");
  SleepState& st = t.sleep_.emplace();
  st.handle = h;
  st.awaiter = this;
  st.wake_at = eng.now() + work_;
  st.timer = eng.schedule_at(st.wake_at, [&t] {
    const std::coroutine_handle<> handle = t.sleep_->handle;
    t.sleep_.reset();
    handle.resume();
  });
  return std::noop_coroutine();
}

sim::Coro<void> SimThread::call_function(image::FunctionId fn, BodyFn body) {
  return run_call(fn, std::move(body), -1);
}

sim::Coro<void> SimThread::call_function(image::FunctionId fn, sim::TimeNs work) {
  DT_ASSERT(work >= 0, "negative work");
  return run_call(fn, nullptr, work);
}

sim::Coro<void> SimThread::run_call(image::FunctionId fn, BodyFn body, sim::TimeNs leaf_work) {
  image::ProgramImage& img = process_.image();
  const machine::CostModel& costs = process_.cluster().spec().costs;
  ++function_entries_;
  ++call_depth_;
  fn_stack_.push_back(fn);

  // Dynamic entry probes (trampoline first, then the mini-trampoline
  // snippets in install order).
  const sim::TimeNs entry_tramp =
      img.trampoline_overhead(fn, image::ProbeWhere::kEntry, costs);
  if (entry_tramp > 0) {
    co_await compute(entry_tramp);
    for (const auto& sn : img.active_snippets(fn, image::ProbeWhere::kEntry)) {
      co_await exec_snippet(*sn);
    }
  }

  // Static instrumentation compiled in by the Guide compiler.
  const bool is_static = img.static_instrumented(fn);
  const std::int64_t fn_arg = fn;
  if (is_static) co_await linked(image::LibEntry::kVtBegin)(*this, {&fn_arg, 1});

  if (leaf_work >= 0) {
    co_await compute(leaf_work);
  } else if (body) {
    co_await body(*this);
  }

  if (is_static) co_await linked(image::LibEntry::kVtEnd)(*this, {&fn_arg, 1});

  const sim::TimeNs exit_tramp = img.trampoline_overhead(fn, image::ProbeWhere::kExit, costs);
  if (exit_tramp > 0) {
    co_await compute(exit_tramp);
    for (const auto& sn : img.active_snippets(fn, image::ProbeWhere::kExit)) {
      co_await exec_snippet(*sn);
    }
  }
  --call_depth_;
  DT_ASSERT(!fn_stack_.empty() && fn_stack_.back() == fn, "function stack corrupted");
  fn_stack_.pop_back();
}

sim::Coro<void> SimThread::exec_snippet(const image::Snippet& snippet) {
  // A bound library call, the usual probe body, forwards to the callee's
  // coroutine: one frame per firing, not two.
  const auto* c = std::get_if<image::CallLibOp>(&snippet.node());
  if (c != nullptr && c->entry != image::LibEntry::kCustom) {
    return linked(c->entry)(*this, c->args);
  }
  return exec_node(snippet);
}

sim::Coro<void> SimThread::exec_node(const image::Snippet& snippet) {
  const auto& node = snippet.node();
  if (const auto* seq = std::get_if<image::SequenceOp>(&node)) {
    for (const auto& item : seq->items) co_await exec_snippet(*item);
  } else if (const auto* c = std::get_if<image::CallLibOp>(&node)) {
    co_await lib_call(c->function, c->args);
  } else if (const auto* spin = std::get_if<image::SpinUntilOp>(&node)) {
    co_await process_.wait_flag(spin->flag, spin->value);
    co_await gate();
  } else if (const auto* cb = std::get_if<image::CallbackOp>(&node)) {
    process_.send_callback(cb->tag);
  }
  // NoOp: nothing.
}

const LibraryRegistry::LibFunction& SimThread::linked(image::LibEntry entry) const {
  const auto* fn = process_.registry().find(entry);
  DT_EXPECT(fn != nullptr, "process ", process_.pid(), ": unresolved library function '",
            image::to_string(entry), "' (not linked)");
  return *fn;
}

sim::Coro<void> SimThread::lib_call(std::string_view name, LibraryRegistry::Args args) {
  const auto* fn = process_.registry().find(name);
  DT_EXPECT(fn != nullptr, "process ", process_.pid(), ": unresolved library function '",
            std::string(name), "' (not linked)");
  co_await (*fn)(*this, args);
}

// ---------------------------------------------------------------------------
// SimProcess
// ---------------------------------------------------------------------------

SimProcess::SimProcess(machine::Cluster& cluster, int pid, int node, int first_cpu,
                       image::ProgramImage img)
    : cluster_(cluster),
      pid_(pid),
      node_(node),
      engine_(cluster.engine()),
      first_cpu_(first_cpu),
      image_(std::move(img)),
      resumed_(engine_),
      terminated_(engine_) {
  DT_EXPECT(node >= 0 && node < cluster.spec().nodes, "node ", node, " out of range for ",
            cluster.spec().name);
  threads_.push_back(std::make_unique<SimThread>(*this, 0, first_cpu));
}

SimThread& SimProcess::add_thread(int cpu) {
  const int tid = static_cast<int>(threads_.size());
  threads_.push_back(std::make_unique<SimThread>(*this, tid, cpu));
  return *threads_.back();
}

void SimProcess::suspend() {
  if (suspended_) return;
  suspended_ = true;
  ++suspend_count_;
  const sim::TimeNs now = engine().now();
  for (auto& thread : threads_) {
    if (thread->sleep_.has_value() && !thread->sleep_->interrupted) {
      SimThread::SleepState& st = *thread->sleep_;
      engine().cancel(st.timer);
      st.interrupted = true;
      st.remaining = st.wake_at - now;
      // The coroutine stays parked; resume() posts the rest of the work.
    }
  }
}

void SimProcess::resume() {
  if (!suspended_) return;
  suspended_ = false;
  for (auto& thread : threads_) {
    if (thread->sleep_.has_value() && thread->sleep_->interrupted) {
      const SimThread::SleepState& st = *thread->sleep_;
      // The continuation runs the rest as compute_after_resume, which
      // waits out a suspension that lands before it runs.
      engine().schedule_at(engine().now(), [thread = thread.get(), awaiter = st.awaiter,
                                            h = st.handle, remaining = st.remaining] {
        awaiter->rest_ = thread->compute_after_resume(remaining);
        awaiter->rest_.await_suspend(h).resume();
      });
      thread->sleep_.reset();
    }
  }
  resumed_.notify_all();
}

std::int64_t SimProcess::flag(const std::string& name) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? 0 : it->second;
}

void SimProcess::set_flag(const std::string& name, std::int64_t value) {
  flags_[name] = value;
  const auto it = flag_waiters_.find(name);
  if (it != flag_waiters_.end()) it->second->notify_all();
}

sim::Coro<void> SimProcess::wait_flag(const std::string& name, std::int64_t value) {
  while (flag(name) != value) {
    auto it = flag_waiters_.find(name);
    if (it == flag_waiters_.end()) {
      it = flag_waiters_.emplace(name, std::make_unique<sim::Condition>(engine())).first;
    }
    co_await it->second->wait();
  }
}

void SimProcess::send_callback(const std::string& tag) {
  if (callback_sink_) {
    callback_sink_(tag, pid_);
  } else {
    std::fprintf(stderr, "proc: process %d: callback '%s' with no instrumenter attached\n", pid_,
                 tag.c_str());
  }
}

}  // namespace dyntrace::proc
