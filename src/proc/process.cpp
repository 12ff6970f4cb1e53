#include "proc/process.hpp"

#include "support/common.hpp"
#include "support/log.hpp"

namespace dyntrace::proc {

// ---------------------------------------------------------------------------
// LibraryRegistry
// ---------------------------------------------------------------------------

void LibraryRegistry::register_function(std::string name, LibFunction fn) {
  DT_ASSERT(fn != nullptr);
  functions_[std::move(name)] = std::move(fn);
}

const LibraryRegistry::LibFunction* LibraryRegistry::find(const std::string& name) const {
  const auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// SimThread
// ---------------------------------------------------------------------------

SimThread::SimThread(SimProcess& process, int tid, int cpu)
    : process_(process), tid_(tid), cpu_(cpu) {}

sim::Engine& SimThread::engine() { return process_.engine(); }

// Awaitable for one interruptible timer wait.  await_resume returns the
// CPU time actually consumed (== requested unless the process was
// suspended mid-wait).
struct SimThread::InterruptibleSleep {
  SimThread& thread;
  sim::TimeNs duration;

  bool await_ready() const noexcept { return duration <= 0; }

  void await_suspend(std::coroutine_handle<> h) {
    sim::Engine& eng = thread.engine();
    DT_ASSERT(!thread.sleep_.has_value(), "thread already sleeping");
    thread.sleep_.emplace();
    SleepState& st = *thread.sleep_;
    st.handle = h;
    st.started = eng.now();
    st.timer = eng.schedule_after(duration, [t = &thread] {
      DT_ASSERT(t->sleep_.has_value());
      t->sleep_->consumed = t->engine().now() - t->sleep_->started;
      t->sleep_->handle.resume();
    });
  }

  sim::TimeNs await_resume() const noexcept {
    if (!thread.sleep_.has_value()) return duration;  // await_ready fast path
    const sim::TimeNs consumed = thread.sleep_->interrupted ? thread.sleep_->consumed : duration;
    thread.sleep_.reset();
    return consumed;
  }
};

sim::Coro<void> SimThread::compute(sim::TimeNs work) {
  DT_ASSERT(work >= 0, "negative work");
  sim::TimeNs remaining = work;
  while (true) {
    if (process_.suspended()) {
      co_await process_.resumed_.wait();
      continue;
    }
    if (remaining <= 0) break;
    const sim::TimeNs consumed = co_await InterruptibleSleep{*this, remaining};
    remaining -= consumed;
  }
}

sim::Coro<void> SimThread::gate() {
  while (process_.suspended()) {
    co_await process_.resumed_.wait();
  }
}

sim::Coro<void> SimThread::call_function(image::FunctionId fn, const BodyFn& body) {
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
  std::vector<std::int64_t> fn_arg(1, static_cast<std::int64_t>(fn));
  if (is_static) co_await lib_call("VT_begin", fn_arg);

  if (body) co_await body(*this);

  if (is_static) co_await lib_call("VT_end", fn_arg);

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
  const auto& node = snippet.node();
  if (const auto* seq = std::get_if<image::SequenceOp>(&node)) {
    for (const auto& item : seq->items) co_await exec_snippet(*item);
  } else if (const auto* c = std::get_if<image::CallLibOp>(&node)) {
    co_await lib_call(c->function, c->args);
  } else if (const auto* f = std::get_if<image::SetFlagOp>(&node)) {
    process_.set_flag(f->flag, f->value);
  } else if (const auto* spin = std::get_if<image::SpinUntilOp>(&node)) {
    co_await process_.wait_flag(spin->flag, spin->value);
    co_await gate();
  } else if (const auto* cb = std::get_if<image::CallbackOp>(&node)) {
    process_.send_callback(cb->tag);
  }
  // NoOp: nothing.
}

sim::Coro<void> SimThread::lib_call(const std::string& name, std::vector<std::int64_t> args) {
  const auto* fn = process_.registry().find(name);
  DT_EXPECT(fn != nullptr, "process ", process_.pid(), ": unresolved library function '", name,
            "' (not linked)");
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
      st.consumed = now - st.started;
      // The coroutine stays parked; resume() reposts it.
    }
  }
}

void SimProcess::resume() {
  if (!suspended_) return;
  suspended_ = false;
  for (auto& thread : threads_) {
    if (thread->sleep_.has_value() && thread->sleep_->interrupted) {
      engine().post(thread->sleep_->handle);
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
    log::warn("proc", "process ", pid_, ": callback '", tag, "' with no instrumenter attached");
  }
}

}  // namespace dyntrace::proc
