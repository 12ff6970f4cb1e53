#include "dpcl/application.hpp"

#include <algorithm>
#include <cmath>

#include "fault/injector.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::dpcl {

namespace {

/// Tool-side marshalling cost per broadcast request.
constexpr sim::TimeNs kMarshalCost = sim::microseconds(25);
constexpr std::int64_t kConnectBytes = 512;
constexpr std::int64_t kCallbackBytes = 96;

sim::TimeNs scale_delay(sim::TimeNs delay, double factor) {
  return static_cast<sim::TimeNs>(std::llround(static_cast<double>(delay) * factor));
}

}  // namespace

DpclApplication::DpclApplication(machine::Cluster& cluster, proc::ParallelJob& job,
                                 int tool_node, std::vector<SuperDaemon*> super_daemons)
    : cluster_(cluster),
      job_(job),
      tool_node_(tool_node),
      super_daemons_(std::move(super_daemons)),
      callbacks_(cluster.engine()) {
  // Group target processes by node.
  for (const auto& process : job_.processes()) {
    const int node = process->node();
    auto it = std::find(nodes_.begin(), nodes_.end(), node);
    if (it == nodes_.end()) {
      nodes_.push_back(node);
      node_pids_.emplace_back();
      it = nodes_.end() - 1;
    }
    node_pids_[static_cast<std::size_t>(it - nodes_.begin())].push_back(process->pid());
  }
  if (fault::FaultInjector* injector = cluster_.fault_injector()) {
    health_ = std::make_unique<HealthTracker>(cluster_.spec().fault, &injector->report());
  }
}

sim::Coro<void> DpclApplication::connect(proc::SimThread& tool) {
  DT_EXPECT(!connected_, "application already connected");
  sim::Engine& tool_engine = tool.engine();

  // Phase 1: authenticate with every target node's super daemon (forks the
  // per-user communication daemons).  One message per node, acks collected.
  fault::FaultInjector* injector = cluster_.fault_injector();
  if (injector == nullptr) {
    auto auth_ack = std::make_shared<AckState>(tool_engine, static_cast<int>(nodes_.size()));
    for (const int node : nodes_) {
      DT_ASSERT(node < static_cast<int>(super_daemons_.size()));
      SuperDaemon* sd = super_daemons_[static_cast<std::size_t>(node)];
      DT_ASSERT(sd != nullptr, "no super daemon on node ", node);
      co_await tool.compute(kMarshalCost);
      const sim::TimeNs now = tool_engine.now();
      const sim::TimeNs delay = cluster_.message_delay(tool_node_, node, kConnectBytes, now);
      sd->engine().schedule_at(now + delay, [sd, auth_ack, this] {
        sd->inbox().put(ConnectRequest{"dynprof-user", auth_ack, tool_node_});
      });
    }
    co_await auth_ack->done.wait();
  } else {
    // Fault-tolerant phase 1: per-node deadline + retries; a node whose
    // super daemon never answers is abandoned before attach.
    const machine::FaultTolerance& ft = cluster_.spec().fault;
    for (const int node : nodes_) {
      DT_ASSERT(node < static_cast<int>(super_daemons_.size()));
      SuperDaemon* sd = super_daemons_[static_cast<std::size_t>(node)];
      DT_ASSERT(sd != nullptr, "no super daemon on node ", node);
      bool acked = false;
      for (int attempt = 0; attempt <= ft.request_max_retries && !acked; ++attempt) {
        if (attempt > 0) {
          telemetry::Registry& reg = telemetry::current();
          reg.add(reg.metrics().dpcl_retries);
        }
        auto ack = std::make_shared<AckState>(tool_engine, 1);
        co_await tool.compute(kMarshalCost);
        const sim::TimeNs now = tool_engine.now();
        sim::TimeNs delay = cluster_.message_delay(tool_node_, node, kConnectBytes, now);
        const fault::MessageFate fate =
            injector->message_fate(fault::Channel::kDaemon, tool_node_, node, now);
        const int copies = fate.drop ? 0 : 1 + fate.duplicates;
        delay = scale_delay(delay, fate.delay_factor);
        for (int c = 0; c < copies; ++c) {
          sd->engine().schedule_at(now + delay, [sd, ack, this] {
            sd->inbox().put(ConnectRequest{"dynprof-user", ack, tool_node_});
          });
        }
        acked = co_await ack->done.wait_for(ft.request_deadline);
        if (!acked && attempt < ft.request_max_retries) {
          co_await tool_engine.sleep(ft.retry_backoff_base << attempt);
        }
      }
      if (!acked) abandon_node(node, tool_engine.now());
    }
  }

  // Phase 2: the freshly forked comm daemons attach to their local
  // processes and parse the images.
  for (const int node : nodes_) {
    comm_daemons_.push_back(std::make_unique<CommDaemon>(cluster_, job_, node));
    comm_daemons_.back()->start(&tool);
  }
  connected_ = true;  // daemons exist; attach is the first broadcast
  Request attach;
  attach.kind = Request::Kind::kAttach;
  co_await broadcast(tool, std::move(attach), /*blocking=*/true);

  // Phase 3: wire the DPCL_callback channel of every target process.  The
  // callback message reaches the tool with daemon-hop + wire latency.
  for (const auto& process : job_.processes()) {
    proc::SimProcess* p = process.get();
    p->set_callback_sink([this, p](const std::string& tag, int pid) {
      const sim::TimeNs now = p->engine().now();
      const sim::TimeNs daemon_hop = cluster_.spec().costs.dpcl_daemon_dispatch;
      sim::TimeNs delay =
          daemon_hop + cluster_.message_delay(p->node(), tool_node_, kCallbackBytes, now);
      int copies = 1;
      if (fault::FaultInjector* inj = cluster_.fault_injector()) {
        // Callbacks route through the local daemon: a dead daemon forwards
        // nothing, and the wire leg is subject to the daemon channel's fate.
        if (!inj->daemon_alive(p->node(), now)) return;
        const fault::MessageFate fate =
            inj->message_fate(fault::Channel::kDaemon, p->node(), tool_node_, now);
        copies = fate.drop ? 0 : 1 + fate.duplicates;
        delay = scale_delay(delay, fate.delay_factor);
      }
      for (int c = 0; c < copies; ++c) {
        cluster_.engine()
            .schedule_at(now + delay, [this, tag, pid] { callbacks_.put({tag, pid}); });
      }
    });
  }
}

sim::Coro<void> DpclApplication::broadcast(proc::SimThread& tool, Request prototype,
                                           bool blocking) {
  DT_EXPECT(connected_, "DPCL operation before connect()");
  if (cluster_.fault_injector() != nullptr) {
    // Fault-tolerant mode makes every broadcast reliable (per-node acks
    // with retries); non-blocking semantics would have no way to detect a
    // dead daemon.
    co_await broadcast_ft(tool, std::move(prototype));
    co_return;
  }
  sim::Engine& tool_engine = tool.engine();
  std::shared_ptr<AckState> ack;
  if (blocking) {
    ack = std::make_shared<AckState>(tool_engine, static_cast<int>(nodes_.size()));
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Request request = prototype;
    request.pids = node_pids_[i];
    request.ack = ack;
    request.reply_node = tool_node_;
    co_await tool.compute(kMarshalCost);
    const sim::TimeNs now = tool_engine.now();
    const sim::TimeNs delay =
        cluster_.message_delay(tool_node_, nodes_[i], request_bytes(request), now);
    CommDaemon* daemon = comm_daemons_[i].get();
    daemon->engine().schedule_at(now + delay, [daemon, request = std::move(request)]() mutable {
      daemon->inbox().put(std::move(request));
    });
    ++requests_sent_;
    telemetry::Registry& reg = telemetry::current();
    reg.add(reg.metrics().dpcl_requests);
  }
  if (ack != nullptr) co_await ack->done.wait();
}

sim::Coro<void> DpclApplication::broadcast_ft(proc::SimThread& tool, Request prototype) {
  fault::FaultInjector* injector = cluster_.fault_injector();
  quarantined_last_broadcast_.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const int node = nodes_[i];
    if (lost_nodes_.count(node) != 0) continue;
    // Circuit breaker (steady state only; setup-phase requests always run
    // the full protocol -- see set_steady_state).
    HealthTracker::Admit admit = HealthTracker::Admit::kNormal;
    if (steady_state_ && health_ != nullptr) admit = health_->admit(node, tool.engine().now());
    if (admit == HealthTracker::Admit::kSkip) {
      quarantined_last_broadcast_.push_back(node);
      // Quarantine sheds instrumentation work, never the ability to
      // un-wedge targets: a resume skipped between a delivered suspend and
      // the next barrier would deadlock the whole job on the quarantined
      // node's ranks.  Model the DPCL library's local detach fallback --
      // the kernel resumes a tracee whose tracer lets go -- exactly as
      // abandon_node does for dead daemons.
      if (prototype.kind == Request::Kind::kResume) {
        force_resume_node(i, tool.engine().now());
      }
      continue;
    }
    Request request = prototype;
    request.pids = node_pids_[i];
    request.reply_node = tool_node_;
    request.request_id = next_request_id_++;
    const bool acked = co_await request_node(tool, i, std::move(request),
                                             admit == HealthTracker::Admit::kProbe);
    if (acked) continue;
    // A failed probe re-opened the breaker (not a full retry exhaustion);
    // the node stays quarantined, not abandoned.  Likewise a gray-prone
    // node (named by a flap/degrade action) that exhausts its retries is
    // quarantined -- its daemon is sick, not gone, and a later half-open
    // probe can re-admit it.  Everything else keeps the crash-fault
    // semantics: exhaustion abandons the node for good.
    if (admit == HealthTracker::Admit::kProbe ||
        (steady_state_ && injector->daemon_gray_prone(node))) {
      quarantined_last_broadcast_.push_back(node);
      // Same safety net as the skip path: a failed resume leaves the
      // node's processes ptrace-suspended, so force the detach-resume
      // (idempotent if the sick daemon eventually works its backlog off).
      if (prototype.kind == Request::Kind::kResume) {
        force_resume_node(i, tool.engine().now());
      }
    } else {
      abandon_node(node, tool.engine().now());
    }
  }
}

void DpclApplication::force_resume_node(std::size_t index, sim::TimeNs now) {
  const int node = nodes_[index];
  const sim::TimeNs delay = cluster_.message_delay(tool_node_, node, 0, now);
  for (const int pid : node_pids_[index]) {
    proc::SimProcess& process = job_.process(pid);
    cluster_.engine().schedule_at(now + delay, [&process] { process.resume(); });
  }
}

sim::Coro<bool> DpclApplication::request_node(proc::SimThread& tool, std::size_t index,
                                              Request request, bool probe) {
  fault::FaultInjector* injector = cluster_.fault_injector();
  DT_ASSERT(injector != nullptr);
  const machine::FaultTolerance& ft = cluster_.spec().fault;
  sim::Engine& tool_engine = tool.engine();
  const int node = nodes_[index];
  CommDaemon* daemon = comm_daemons_[index].get();

  // A half-open probe gets exactly one attempt: its job is to answer "has
  // the node recovered?" cheaply, not to push the request through.
  const int max_retries = probe ? 0 : ft.request_max_retries;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    // A fresh single-node AckState per attempt: a late or duplicated ack of
    // an earlier attempt decrements an already-fired (abandoned) state and
    // can never complete a later one early.
    auto ack = std::make_shared<AckState>(tool_engine, 1);
    request.ack = ack;
    co_await tool.compute(kMarshalCost);
    const sim::TimeNs now = tool_engine.now();
    sim::TimeNs delay = cluster_.message_delay(tool_node_, node, request_bytes(request), now);
    const fault::MessageFate fate =
        injector->message_fate(fault::Channel::kDaemon, tool_node_, node, now);
    const int copies = fate.drop ? 0 : 1 + fate.duplicates;
    delay = scale_delay(delay, fate.delay_factor);
    for (int c = 0; c < copies; ++c) {
      Request copy = request;
      daemon->engine().schedule_at(now + delay, [daemon, copy = std::move(copy)]() mutable {
        daemon->inbox().put(std::move(copy));
      });
    }
    ++requests_sent_;
    {
      telemetry::Registry& reg = telemetry::current();
      reg.add(reg.metrics().dpcl_requests);
      if (attempt > 0) reg.add(reg.metrics().dpcl_retries);
    }
    const sim::TimeNs sent = now;
    const bool acked = co_await ack->done.wait_for(ft.request_deadline);
    if (health_ != nullptr) {
      health_->record_attempt(node, acked, tool_engine.now() - sent, tool_engine.now());
    }
    if (acked) co_return true;
    if (attempt < max_retries) {
      co_await tool_engine.sleep(ft.retry_backoff_base << attempt);
    }
  }
  co_return false;
}

void DpclApplication::abandon_node(int node, sim::TimeNs now) {
  if (!lost_nodes_.insert(node).second) return;
  {
    telemetry::Registry& reg = telemetry::current();
    reg.add(reg.metrics().dpcl_abandoned_nodes);
  }
  std::vector<int> ranks;
  const auto it = std::find(nodes_.begin(), nodes_.end(), node);
  if (it != nodes_.end()) {
    for (const int pid : node_pids_[static_cast<std::size_t>(it - nodes_.begin())]) {
      job_.process(pid).mark_lost();
      ranks.push_back(pid);
    }
  }
  // A dead daemon cannot resume targets it had ptrace-suspended, but the
  // kernel does: a tracee continues when its tracer dies.  Model that
  // detach, so a daemon lost between a patch cycle's suspend and resume
  // leaves the node's processes running (uninstrumented), not wedged.
  const sim::TimeNs delay = cluster_.message_delay(tool_node_, node, 0, now);
  for (const int pid : ranks) {
    proc::SimProcess& process = job_.process(pid);
    cluster_.engine().schedule_at(now + delay, [&process] { process.resume(); });
  }
  fault::FaultInjector* injector = cluster_.fault_injector();
  DT_ASSERT(injector != nullptr);
  injector->report().add(now, "daemon-lost", str::format("node=%d", node), ranks);
}

std::vector<int> DpclApplication::quarantined_pids() const {
  std::vector<int> out;
  if (health_ == nullptr) return out;
  for (const int node : health_->quarantined_nodes()) {
    if (lost_nodes_.count(node) != 0) continue;
    const auto it = std::find(nodes_.begin(), nodes_.end(), node);
    if (it == nodes_.end()) continue;
    const auto& pids = node_pids_[static_cast<std::size_t>(it - nodes_.begin())];
    out.insert(out.end(), pids.begin(), pids.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int> DpclApplication::lost_pids() const {
  std::vector<int> out;
  for (const int node : lost_nodes_) {
    const auto it = std::find(nodes_.begin(), nodes_.end(), node);
    if (it == nodes_.end()) continue;
    const auto& pids = node_pids_[static_cast<std::size_t>(it - nodes_.begin())];
    out.insert(out.end(), pids.begin(), pids.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

sim::Coro<void> DpclApplication::install_probe(proc::SimThread& tool, image::FunctionId fn,
                                               image::ProbeWhere where,
                                               image::SnippetPtr snippet, bool activate,
                                               bool blocking) {
  Request request;
  request.kind = Request::Kind::kInstall;
  request.fn = fn;
  request.where = where;
  request.snippet = std::move(snippet);
  request.active = activate;
  co_await broadcast(tool, std::move(request), blocking);
}

sim::Coro<void> DpclApplication::remove_function_probes(proc::SimThread& tool,
                                                        image::FunctionId fn, bool blocking) {
  Request request;
  request.kind = Request::Kind::kRemoveFunction;
  request.fn = fn;
  co_await broadcast(tool, std::move(request), blocking);
}

sim::Coro<void> DpclApplication::set_function_probes_active(proc::SimThread& tool,
                                                            image::FunctionId fn, bool active,
                                                            bool blocking) {
  Request request;
  request.kind = Request::Kind::kActivateFunction;
  request.fn = fn;
  request.active = active;
  co_await broadcast(tool, std::move(request), blocking);
}

sim::Coro<void> DpclApplication::suspend_all(proc::SimThread& tool, bool blocking) {
  Request request;
  request.kind = Request::Kind::kSuspend;
  co_await broadcast(tool, std::move(request), blocking);
}

sim::Coro<void> DpclApplication::resume_all(proc::SimThread& tool, bool blocking) {
  Request request;
  request.kind = Request::Kind::kResume;
  co_await broadcast(tool, std::move(request), blocking);
}

sim::Coro<void> DpclApplication::set_flag_all(proc::SimThread& tool, const std::string& flag,
                                              std::int64_t value, bool blocking) {
  Request request;
  request.kind = Request::Kind::kSetFlag;
  request.flag = flag;
  request.value = value;
  co_await broadcast(tool, std::move(request), blocking);
}

sim::Coro<void> DpclApplication::execute_snippet(proc::SimThread& tool,
                                                 image::SnippetPtr snippet, bool blocking) {
  Request request;
  request.kind = Request::Kind::kExecute;
  request.snippet = std::move(snippet);
  co_await broadcast(tool, std::move(request), blocking);
}

}  // namespace dyntrace::dpcl
