#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "telemetry/metrics.hpp"

namespace dyntrace::sim {

// Detached driver: owns nothing after completion (final_suspend never), but
// registers its handle with the engine so that frames still suspended when
// the engine dies are destroyed (which recursively destroys the whole chain
// of child Coro frames).
struct Engine::RootDriver {
  struct promise_type {
    RootDriver get_return_object() {
      return RootDriver{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      // The driver body catches everything; reaching here is a bug.
      DT_PANIC("exception escaped RootDriver");
    }
  };
  std::coroutine_handle<promise_type> handle;
};

Engine::~Engine() {
  // Destroy any still-suspended root frames (daemons, or teardown after a
  // failed run).  Destroying the root frame unwinds its child coroutines.
  for (auto& [id, info] : roots_) {
    if (info.handle) info.handle.destroy();
  }
  // Hand pooled coroutine frames back to the heap: the next run's set-up
  // then reuses warm pages instead of growing the heap past them.
  detail::trim_frame_pool();
}

// The driver coroutine owns the process body for its whole lifetime.  It is
// a member coroutine: `this` (the Engine) is guaranteed to outlive every
// frame because ~Engine destroys surviving frames.
Engine::RootDriver Engine::drive_root(Coro<void> body, std::uint64_t root_id, bool daemon) {
  try {
    co_await std::move(body);
  } catch (...) {
    record_failure(roots_.at(root_id).name, std::current_exception());
  }
  finish_root(root_id, daemon);
}

void Engine::spawn(Coro<void> body, std::string name, SpawnOptions options) {
  DT_ASSERT(body.valid(), "spawning an empty Coro");
  const std::uint64_t id = next_root_id_++;
  ++alive_;
  if (options.daemon) ++daemons_alive_;

  RootDriver driver = drive_root(std::move(body), id, options.daemon);

  roots_.emplace(id, RootInfo{driver.handle, std::move(name), options.daemon});
  // Start at the current time, after events already queued for `now`.
  queue_.schedule(now_, [h = driver.handle] { h.resume(); });
}

void Engine::record_failure(const std::string& name, std::exception_ptr error) {
  if (!failure_) {
    failure_ = error;
  } else {
    std::fprintf(stderr, "sim: additional process failure in '%s' (first failure wins)\n",
                 name.c_str());
  }
}

void Engine::finish_root(std::uint64_t id, bool daemon) {
  auto it = roots_.find(id);
  DT_ASSERT(it != roots_.end());
  // The frame is about to self-destroy (final_suspend never): forget it.
  roots_.erase(it);
  DT_ASSERT(alive_ > 0);
  --alive_;
  if (daemon) {
    DT_ASSERT(daemons_alive_ > 0);
    --daemons_alive_;
  }
}

std::vector<std::string> Engine::blocked_process_names() const {
  std::vector<std::string> names;
  for (const auto& [id, info] : roots_) {
    if (!info.daemon) names.push_back(info.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool Engine::step() {
  if (queue_.empty()) return false;
  auto [time, cb] = queue_.pop();
  DT_ASSERT(time >= now_, "event queue went backwards");
  now_ = time;
  ++events_executed_;
  inline_streak_ = 0;
  cb();
  return true;
}

std::size_t Engine::run_until_blocked(TimeNs deadline) {
  const std::uint64_t before = events_executed_;
  const std::uint64_t inline_before = inline_wakeups_;
  struct Running {
    Engine& engine;
    bool was_running;
    TimeNs was_deadline;
    ~Running() {
      engine.running_ = was_running;
      engine.deadline_ = was_deadline;
    }
  } running{*this, running_, deadline_};
  running_ = true;
  deadline_ = deadline;
  while (!queue_.empty() && !failure_) {
    if (deadline >= 0) {
      auto next = queue_.next_time();
      if (next && *next > deadline) {
        now_ = deadline;
        break;
      }
    }
    step();
  }
  if (events_executed_ != before) {
    telemetry::Registry& reg = telemetry::current();
    reg.add(reg.metrics().sim_events, events_executed_ - before);
    if (inline_wakeups_ != inline_before) {
      reg.add(reg.metrics().sim_inline_wakeups, inline_wakeups_ - inline_before);
    }
  }
  if (failure_) {
    auto error = failure_;
    failure_ = nullptr;
    std::rethrow_exception(error);
  }
  return alive_ - daemons_alive_;
}

void Engine::run(TimeNs deadline) {
  const std::size_t blocked = run_until_blocked(deadline);
  if (deadline >= 0 && !queue_.empty()) return;  // stopped at deadline, fine
  if (blocked > 0) {
    std::ostringstream os;
    os << "simulation deadlock: " << blocked << " process(es) blocked with no pending events:";
    for (const auto& name : blocked_process_names()) os << " '" << name << "'";
    throw DeadlockError(os.str());
  }
}

}  // namespace dyntrace::sim
