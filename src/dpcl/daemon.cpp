#include "dpcl/daemon.hpp"

#include <algorithm>
#include <cmath>

#include "fault/injector.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::dpcl {

namespace {

/// Super-daemon costs: user authentication and forking a comm daemon.
constexpr sim::TimeNs kAuthCost = sim::milliseconds(40);
constexpr sim::TimeNs kForkCommDaemonCost = sim::milliseconds(85);
constexpr std::int64_t kAckBytes = 64;

/// Service time scaled by a degrade-daemon factor (gray failure: the
/// daemon is alive but slow).  1.0 is the overwhelmingly common case.
sim::TimeNs degraded(sim::TimeNs cost, double factor) {
  if (factor == 1.0) return cost;
  return static_cast<sim::TimeNs>(std::llround(static_cast<double>(cost) * factor));
}

/// Deliver an ack to the waiter's node, subjecting it to the fault
/// injector's daemon-channel message fate when one is installed (without
/// one this is exactly the legacy single delivery).
void deliver_ack(machine::Cluster& cluster, int src_node, int reply_node,
                 const std::shared_ptr<AckState>& ack, int failures, sim::TimeNs now) {
  sim::TimeNs delay = cluster.message_delay(src_node, reply_node, kAckBytes, now);
  int copies = 1;
  if (fault::FaultInjector* injector = cluster.fault_injector()) {
    const fault::MessageFate fate =
        injector->message_fate(fault::Channel::kDaemon, src_node, reply_node, now);
    copies = fate.drop ? 0 : 1 + fate.duplicates;
    delay = static_cast<sim::TimeNs>(
        std::llround(static_cast<double>(delay) * fate.delay_factor));
  }
  for (int i = 0; i < copies; ++i) {
    cluster.engine().schedule_at(now + delay, [ack, failures] {
      ack->failed += failures;
      if (--ack->remaining == 0) ack->done.fire();
    });
  }
}

}  // namespace

std::int64_t request_bytes(const Request& request) {
  std::int64_t bytes = 256;  // header + pid list
  if (request.snippet != nullptr) {
    bytes += 64 * request.snippet->primitive_count();  // marshalled AST
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// CommDaemon
// ---------------------------------------------------------------------------

namespace {

/// Shared start logic: spawn `body`, routing through a zero-byte fork
/// message when the starter sits on another node.
template <typename SpawnFn>
void start_daemon(machine::Cluster& cluster, sim::Engine& home, int node,
                  proc::SimThread* origin, SpawnFn spawn) {
  if (origin == nullptr || origin->process().node() == node) {
    spawn();
    return;
  }
  const sim::TimeNs now = origin->engine().now();
  const sim::TimeNs delay =
      cluster.message_delay(origin->process().node(), node, 0, now);
  home.schedule_at(now + delay, std::move(spawn));
}

}  // namespace

CommDaemon::CommDaemon(machine::Cluster& cluster, proc::ParallelJob& job, int node)
    : cluster_(cluster),
      job_(job),
      node_(node),
      engine_(cluster.engine()),
      inbox_(engine_) {}

void CommDaemon::start(proc::SimThread* origin) {
  DT_ASSERT(!started_, "daemon already started");
  started_ = true;
  start_daemon(cluster_, engine_, node_, origin, [this] {
    engine_.spawn(loop(), str::format("dpcl.commd.node%d", node_),
                  sim::Engine::SpawnOptions{.daemon = true});
  });
}

sim::Coro<void> CommDaemon::loop() {
  sim::Engine& engine = engine_;
  while (true) {
    Request request = co_await inbox_.recv();
    fault::FaultInjector* injector = cluster_.fault_injector();
    if (injector != nullptr && !injector->daemon_alive(node_, engine.now())) {
      // The daemon died: requests reach a closed socket.  No dispatch, no
      // ack -- the sender's deadline is what detects this.
      continue;
    }
    ++requests_handled_;
    // A degrade-daemon action stretches the whole service time (dispatch
    // and per-target work), evaluated once at receipt: the daemon answers,
    // just `factor` times slower -- the gray failure the tool-side health
    // tracker has to detect from latency alone.
    const double degrade =
        injector != nullptr ? injector->daemon_degrade_factor(node_, engine.now()) : 1.0;
    co_await engine.sleep(degraded(cluster_.spec().costs.dpcl_daemon_dispatch, degrade));
    if (request.request_id != 0) {
      const auto it = completed_.find(request.request_id);
      if (it != completed_.end()) {
        // Retry of a request this daemon already executed (its ack was
        // lost): re-ack without re-running the side effects.
        telemetry::Registry& reg = telemetry::current();
        reg.add(reg.metrics().dpcl_dedup_hits);
        send_ack(request, it->second);
        continue;
      }
    }
    const int failures = co_await execute(request, degrade);
    if (request.request_id != 0) {
      completed_[request.request_id] = failures;
      // Deterministic eviction: ids are monotonic, so begin() is always
      // the oldest completed entry (see set_dedup_capacity).
      while (completed_.size() > dedup_capacity_) {
        completed_.erase(completed_.begin());
        telemetry::Registry& reg = telemetry::current();
        reg.add(reg.metrics().dpcl_dedup_evictions);
      }
    }
    send_ack(request, failures);
  }
}

void CommDaemon::send_ack(const Request& request, int failures) {
  if (request.ack == nullptr) return;
  deliver_ack(cluster_, node_, request.reply_node, request.ack, failures, engine_.now());
}

sim::Coro<int> CommDaemon::execute(const Request& request, double degrade) {
  sim::Engine& engine = engine_;
  const machine::CostModel& costs = cluster_.spec().costs;

  int failures = 0;
  for (const int pid : request.pids) {
    proc::SimProcess& process = job_.process(pid);
    DT_ASSERT(process.node() == node_, "daemon on node ", node_, " asked to touch pid ", pid,
              " on node ", process.node());
    if (process.terminated().fired() &&
        (request.kind == Request::Kind::kExecute || cluster_.fault_injector() != nullptr)) {
      // The target exited before dispatch (ptrace would return ESRCH).
      // A kExecute against a dead process would block on its completion
      // forever, leaking the whole request's ack -- always count the
      // failure and move on.  The other kinds are harmless no-ops on the
      // simulated corpse, so the legacy path keeps its historical timing;
      // under fault injection every kind resolves as a per-pid failure.
      ++failures;
      continue;
    }
    switch (request.kind) {
      case Request::Kind::kAttach:
        // ptrace attach + read/analyse the executable image.
        co_await engine.sleep(degraded(costs.dpcl_connect, degrade));
        co_await engine.sleep(degraded(costs.dpcl_parse_image, degrade));
        break;
      case Request::Kind::kInstall: {
        DT_ASSERT(request.snippet != nullptr);
        const int prims = std::max(1, request.snippet->primitive_count());
        co_await engine.sleep(degraded(costs.dpcl_patch_per_probe * prims, degrade));
        process.image().install_probe(request.fn, request.where, request.snippet,
                                      request.active);
        break;
      }
      case Request::Kind::kRemoveFunction: {
        co_await engine.sleep(degraded(costs.dpcl_patch_per_probe, degrade));
        auto& img = process.image();
        for (const auto where : {image::ProbeWhere::kEntry, image::ProbeWhere::kExit}) {
          // Collect handles first: removal mutates the mini list.
          std::vector<image::ProbeHandle> handles;
          for (const auto& probe : img.probe_point(request.fn, where).minis) {
            handles.push_back(probe.handle);
          }
          for (const auto handle : handles) img.remove_probe(handle);
        }
        break;
      }
      case Request::Kind::kActivateFunction: {
        co_await engine.sleep(degraded(costs.dpcl_patch_per_probe / 4, degrade));
        auto& img = process.image();
        for (const auto where : {image::ProbeWhere::kEntry, image::ProbeWhere::kExit}) {
          for (const auto& probe : img.probe_point(request.fn, where).minis) {
            img.set_probe_active(probe.handle, request.active);
          }
        }
        break;
      }
      case Request::Kind::kSuspend:
        co_await engine.sleep(degraded(costs.dpcl_suspend_resume, degrade));
        process.suspend();
        break;
      case Request::Kind::kResume:
        co_await engine.sleep(degraded(costs.dpcl_suspend_resume, degrade));
        process.resume();
        break;
      case Request::Kind::kSetFlag:
        co_await engine.sleep(degraded(costs.dpcl_suspend_resume / 2, degrade));
        process.set_flag(request.flag, request.value);
        break;
      case Request::Kind::kExecute: {
        // Inferior RPC: the snippet runs once on a transient thread inside
        // the target's address space, with full access to its libraries
        // and memory.  The daemon waits for completion before acking.
        DT_ASSERT(request.snippet != nullptr);
        co_await engine.sleep(degraded(costs.dpcl_patch_per_probe / 2, degrade));  // stage the code
        proc::SimThread& rpc = process.add_thread(process.main_thread().cpu());
        co_await rpc.exec_snippet(*request.snippet);
        break;
      }
    }
  }
  co_return failures;
}

// ---------------------------------------------------------------------------
// SuperDaemon
// ---------------------------------------------------------------------------

SuperDaemon::SuperDaemon(machine::Cluster& cluster, int node)
    : cluster_(cluster),
      node_(node),
      engine_(cluster.engine()),
      inbox_(engine_) {}

void SuperDaemon::start(proc::SimThread* origin) {
  DT_ASSERT(!started_, "super daemon already started");
  started_ = true;
  start_daemon(cluster_, engine_, node_, origin, [this] {
    engine_.spawn(loop(), str::format("dpcl.superd.node%d", node_),
                  sim::Engine::SpawnOptions{.daemon = true});
  });
}

sim::Coro<void> SuperDaemon::loop() {
  sim::Engine& engine = engine_;
  while (true) {
    ConnectRequest request = co_await inbox_.recv();
    fault::FaultInjector* injector = cluster_.fault_injector();
    if (injector != nullptr && !injector->daemon_alive(node_, engine.now())) {
      continue;  // the node's daemon infrastructure is gone
    }
    ++connections_;
    // Authenticate the user, then fork the per-user communication daemon.
    // A degraded node's super daemon suffers the same slowdown.
    const double degrade =
        injector != nullptr ? injector->daemon_degrade_factor(node_, engine.now()) : 1.0;
    co_await engine.sleep(degraded(kAuthCost, degrade));
    co_await engine.sleep(degraded(kForkCommDaemonCost, degrade));
    if (request.ack != nullptr) {
      deliver_ack(cluster_, node_, request.reply_node, request.ack, 0, engine.now());
    }
  }
}

}  // namespace dyntrace::dpcl
