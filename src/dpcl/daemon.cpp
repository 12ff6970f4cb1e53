#include "dpcl/daemon.hpp"

#include <algorithm>

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

/// Deliver an ack to the waiter's node, subject to the daemon channel's
/// message fate.
void deliver_ack(machine::Cluster& cluster, int src_node, const Request& request,
                 int failures, sim::TimeNs now) {
  const fault::MessageFate fate = cluster.fault_injector().message_fate(
      fault::Channel::kDaemon, src_node, request.reply_node, now);
  const sim::TimeNs delay = fault::scale_delay(
      cluster.message_delay(src_node, request.reply_node, kAckBytes, now), fate.delay_factor);
  for (int i = 0; i < fate.copies(); ++i) {
    cluster.engine().schedule_at(
        now + delay, [ack = request.ack, slot = request.ack_slot, failures, at = now + delay] {
          ack->ack(slot, failures, at);
        });
  }
}

}  // namespace

void AckState::ack(int slot, int failures, sim::TimeNs now) {
  if (settled(slot)) return;
  acked_at[static_cast<std::size_t>(slot)] = now;
  failed += failures;
  if (2 * ++acks >= static_cast<int>(acked_at.size())) majority.fire();
  settle();
}

void AckState::give_up(int slot) {
  if (settled(slot)) return;
  acked_at[static_cast<std::size_t>(slot)] = kGivenUp;
  settle();
}

void AckState::settle() {
  if (--remaining > 0) return;
  majority.fire();
  done.fire();
}

std::int64_t request_bytes(const Request& request) {
  if (request.kind == Request::Kind::kConnect) return 512;  // credentials
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
    const fault::FaultInjector& injector = cluster_.fault_injector();
    if (!injector.daemon_alive(node_, engine.now())) {
      // The daemon died: requests reach a closed socket.  No dispatch, no
      // ack -- the sender's deadline is what detects this.
      continue;
    }
    ++requests_handled_;
    // A degrade-daemon action stretches the whole service time (dispatch
    // and per-target work), evaluated once at receipt: the daemon answers,
    // just `factor` times slower -- the gray failure the tool-side health
    // tracker has to detect from latency alone.
    const double degrade = injector.daemon_degrade_factor(node_, engine.now());
    co_await engine.sleep(
        fault::scale_delay(cluster_.spec().costs.dpcl_daemon_dispatch, degrade));
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
  deliver_ack(cluster_, node_, request, failures, engine_.now());
}

sim::Coro<int> CommDaemon::execute(const Request& request, double degrade) {
  sim::Engine& engine = engine_;
  const machine::CostModel& costs = cluster_.spec().costs;

  int failures = 0;
  for (const int pid : request.pids) {
    proc::SimProcess& process = job_.process(pid);
    DT_ASSERT(process.node() == node_, "daemon on node ", node_, " asked to touch pid ", pid,
              " on node ", process.node());
    // A target that exited before dispatch fails the request for its pid,
    // whatever the kind (ptrace returns ESRCH).  The daemon still spends
    // the operation's time before the kernel refuses it.
    const bool exited = process.terminated().fired();
    if (exited) ++failures;
    switch (request.kind) {
      case Request::Kind::kConnect:
        DT_ASSERT(false, "connect requests go to the super daemon");
        break;
      case Request::Kind::kAttach:
        // ptrace attach + read/analyse the executable image.
        co_await engine.sleep(fault::scale_delay(costs.dpcl_connect, degrade));
        co_await engine.sleep(fault::scale_delay(costs.dpcl_parse_image, degrade));
        break;
      case Request::Kind::kInstall: {
        DT_ASSERT(request.snippet != nullptr);
        const int prims = std::max(1, request.snippet->primitive_count());
        co_await engine.sleep(fault::scale_delay(costs.dpcl_patch_per_probe * prims, degrade));
        if (exited) break;
        process.image().install_probe(request.fn, request.where, request.snippet,
                                      request.active);
        break;
      }
      case Request::Kind::kRemoveFunction: {
        co_await engine.sleep(fault::scale_delay(costs.dpcl_patch_per_probe, degrade));
        if (exited) break;
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
      case Request::Kind::kSuspend:
        co_await engine.sleep(fault::scale_delay(costs.dpcl_suspend_resume, degrade));
        if (!exited) process.suspend();
        break;
      case Request::Kind::kResume:
        co_await engine.sleep(fault::scale_delay(costs.dpcl_suspend_resume, degrade));
        if (!exited) process.resume();
        break;
      case Request::Kind::kSetFlag:
        co_await engine.sleep(fault::scale_delay(costs.dpcl_suspend_resume / 2, degrade));
        if (!exited) process.set_flag(request.flag, request.value);
        break;
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
    Request request = co_await inbox_.recv();
    DT_ASSERT(request.kind == Request::Kind::kConnect, "super daemon only serves connects");
    const fault::FaultInjector& injector = cluster_.fault_injector();
    if (!injector.daemon_alive(node_, engine.now())) {
      continue;  // the node's daemon infrastructure is gone
    }
    ++connections_;
    // Authenticate the user, then fork the per-user communication daemon.
    // A degraded node's super daemon suffers the same slowdown.
    const double degrade = injector.daemon_degrade_factor(node_, engine.now());
    co_await engine.sleep(fault::scale_delay(kAuthCost, degrade));
    co_await engine.sleep(fault::scale_delay(kForkCommDaemonCost, degrade));
    if (request.ack != nullptr) deliver_ack(cluster_, node_, request, 0, engine.now());
  }
}

}  // namespace dyntrace::dpcl
