#include "dpcl/application.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::dpcl {

namespace {

/// Tool-side marshalling cost per broadcast request.
constexpr sim::TimeNs kMarshalCost = sim::microseconds(25);
constexpr std::int64_t kCallbackBytes = 96;
/// A node still silent this many times the round's majority-ack time after
/// the majority acked is a straggler: its request or ack was probably lost.
constexpr sim::TimeNs kStragglerFactor = 4;

}  // namespace

/// One broadcast in flight: the request, and per ack slot the node it
/// targets, whether it is a half-open probe, and when it was last sent.
struct DpclApplication::Round {
  Request request;
  std::vector<std::size_t> index;  ///< slot -> entry of nodes_
  std::vector<bool> probe;         ///< slot -> single attempt, no retries
  std::vector<sim::TimeNs> sent_at;
  std::shared_ptr<AckState> ack;
  std::vector<int> quarantined;    ///< nodes skipped or failed, in slot order
};

DpclApplication::DpclApplication(machine::Cluster& cluster, proc::ParallelJob& job,
                                 int tool_node, std::vector<SuperDaemon*> super_daemons)
    : cluster_(cluster),
      job_(job),
      tool_node_(tool_node),
      super_daemons_(std::move(super_daemons)),
      callbacks_(cluster.engine()),
      health_(cluster.spec().fault, &cluster.fault_injector().report()) {
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
}

sim::Coro<void> DpclApplication::connect(proc::SimThread& tool) {
  DT_EXPECT(!connected_, "application already connected");

  // Phase 1: authenticate with every target node's super daemon, which
  // forks the per-user communication daemons.  A node whose super daemon
  // never answers is abandoned before attach.
  for (const int node : nodes_) {
    DT_ASSERT(node < static_cast<int>(super_daemons_.size()) &&
                  super_daemons_[static_cast<std::size_t>(node)] != nullptr,
              "no super daemon on node ", node);
  }
  Request auth;
  auth.kind = Request::Kind::kConnect;
  co_await broadcast(tool, std::move(auth), /*blocking=*/true);

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
  // callback message reaches the tool with daemon-hop + wire latency; it
  // routes through the local daemon, so a dead daemon forwards nothing and
  // the wire leg is subject to the daemon channel's fate.
  for (const auto& process : job_.processes()) {
    proc::SimProcess* p = process.get();
    p->set_callback_sink([this, p](const std::string& tag, int pid) {
      const sim::TimeNs now = p->engine().now();
      fault::FaultInjector& injector = cluster_.fault_injector();
      if (!injector.daemon_alive(p->node(), now)) return;
      const fault::MessageFate fate =
          injector.message_fate(fault::Channel::kDaemon, p->node(), tool_node_, now);
      const sim::TimeNs daemon_hop = cluster_.spec().costs.dpcl_daemon_dispatch;
      const sim::TimeNs delay = fault::scale_delay(
          daemon_hop + cluster_.message_delay(p->node(), tool_node_, kCallbackBytes, now),
          fate.delay_factor);
      for (int c = 0; c < fate.copies(); ++c) {
        cluster_.engine()
            .schedule_at(now + delay, [this, tag, pid] { callbacks_.put({tag, pid}); });
      }
    });
  }
}

sim::Coro<void> DpclApplication::broadcast(proc::SimThread& tool, Request prototype,
                                           bool blocking) {
  DT_EXPECT(connected_ || prototype.kind == Request::Kind::kConnect,
            "DPCL operation before connect()");
  auto round = std::make_shared<Round>();
  round->request = std::move(prototype);
  round->request.reply_node = tool_node_;
  round->request.request_id = next_request_id_++;

  // Admission.  Lost nodes are skipped; in steady state an open circuit
  // breaker quarantines its node (setup-phase requests always run the full
  // protocol -- see set_steady_state) and a half-open one gets a probe.
  const sim::TimeNs now = tool.engine().now();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const int node = nodes_[i];
    if (lost_nodes_.count(node) != 0) continue;
    const HealthTracker::Admit admit =
        steady_state_ ? health_.admit(node, now) : HealthTracker::Admit::kNormal;
    if (admit == HealthTracker::Admit::kSkip) {
      round->quarantined.push_back(node);
      // Quarantine sheds instrumentation work, never the ability to
      // un-wedge targets: a resume skipped between a delivered suspend and
      // the next barrier would deadlock the whole job on the quarantined
      // node's ranks.  Model the DPCL library's local detach fallback --
      // the kernel resumes a tracee whose tracer lets go -- exactly as
      // abandon_node does for dead daemons.
      if (round->request.kind == Request::Kind::kResume) force_resume_node(i, now);
      continue;
    }
    round->index.push_back(i);
    round->probe.push_back(admit == HealthTracker::Admit::kProbe);
  }
  if (!round->index.empty()) {
    const int slots = static_cast<int>(round->index.size());
    round->ack = std::make_shared<AckState>(tool.engine(), slots);
    round->sent_at.assign(round->index.size(), 0);
    co_await send(&tool, *round, Send::kFirst);
    if (blocking) {
      co_await collect(&tool, round);
    } else {
      tool.engine().spawn(collect(nullptr, round), "dpcl.acks");
    }
  }
  // A detached ack phase has not run yet: only the skips are known.
  quarantined_last_broadcast_ = round->quarantined;
}

sim::Coro<void> DpclApplication::send(proc::SimThread* tool, Round& round, Send kind) {
  sim::Engine& engine = cluster_.engine();
  fault::FaultInjector& injector = cluster_.fault_injector();
  telemetry::Registry& reg = telemetry::current();
  for (std::size_t slot = 0; slot < round.index.size(); ++slot) {
    if (round.ack->settled(static_cast<int>(slot))) continue;
    if (tool != nullptr) {
      co_await tool->compute(kMarshalCost);
    } else {
      co_await engine.sleep(kMarshalCost);
    }
    const std::size_t i = round.index[slot];
    const int node = nodes_[i];
    Request request = round.request;
    request.pids = node_pids_[i];
    request.ack = round.ack;
    request.ack_slot = static_cast<int>(slot);
    const sim::TimeNs now = engine.now();
    const fault::MessageFate fate =
        injector.message_fate(fault::Channel::kDaemon, tool_node_, node, now);
    const sim::TimeNs delay = fault::scale_delay(
        cluster_.message_delay(tool_node_, node, request_bytes(request), now),
        fate.delay_factor);
    sim::Mailbox<Request>& inbox = request.kind == Request::Kind::kConnect
                                       ? super_daemons_[static_cast<std::size_t>(node)]->inbox()
                                       : comm_daemons_[i]->inbox();
    for (int c = 0; c < fate.copies(); ++c) {
      engine.schedule_at(now + delay, [&inbox, request]() mutable {
        inbox.put(std::move(request));
      });
    }
    if (kind != Send::kStraggler) round.sent_at[slot] = now;
    ++requests_sent_;
    reg.add(reg.metrics().dpcl_requests);
    if (kind != Send::kFirst) reg.add(reg.metrics().dpcl_retries);
  }
}

sim::Coro<void> DpclApplication::collect(proc::SimThread* tool, std::shared_ptr<Round> round) {
  const machine::FaultTolerance& ft = cluster_.spec().fault;
  sim::Engine& engine = cluster_.engine();
  AckState& ack = *round->ack;
  // Slots whose latest attempt has not been scored yet.
  std::vector<bool> open(round->index.size(), true);
  for (int attempt = 0;; ++attempt) {
    const sim::TimeNs deadline = engine.now() + ft.request_deadline;
    if (attempt == 0 && round->index.size() > 1) {
      // Loss recovery: once a majority acked, resend to the nodes still
      // silent well past the majority's ack time instead of letting one
      // lost message hold the whole round until the deadline.  Stragglers
      // are not misses: only the deadline scores and abandons.
      co_await ack.majority.wait_for(ft.request_deadline);
      const sim::TimeNs overdue = std::max(
          ft.health_latency_ref, kStragglerFactor * (engine.now() - round->sent_at.front()));
      if (!ack.done.fired() && engine.now() + overdue < deadline &&
          !co_await ack.done.wait_for(overdue)) {
        co_await send(tool, *round, Send::kStraggler);
      }
    }
    if (engine.now() < deadline) co_await ack.done.wait_for(deadline - engine.now());
    const sim::TimeNs now = engine.now();
    bool retry = false;
    for (std::size_t slot = 0; slot < round->index.size(); ++slot) {
      if (!open[slot]) continue;
      const int s = static_cast<int>(slot);
      const int node = nodes_[round->index[slot]];
      if (ack.acked(s)) {
        health_.record_attempt(node, true, ack.acked_at[slot] - round->sent_at[slot], now);
        open[slot] = false;
        continue;
      }
      health_.record_attempt(node, false, 0, now);
      // A half-open probe gets exactly one attempt: its job is to answer
      // "has the node recovered?" cheaply, not to push the request through.
      if (round->probe[slot] || attempt == ft.request_max_retries) {
        ack.give_up(s);
        open[slot] = false;
        settle_silent(*round, round->index[slot], round->probe[slot], now);
      } else {
        retry = true;
      }
    }
    if (!retry) break;
    co_await engine.sleep(ft.retry_backoff_base << attempt);
    co_await send(tool, *round, Send::kRetry);
  }
}

void DpclApplication::settle_silent(Round& round, std::size_t index, bool probe,
                                    sim::TimeNs now) {
  const int node = nodes_[index];
  // A failed probe re-opened the breaker (not a full retry exhaustion);
  // the node stays quarantined, not abandoned.  Likewise a gray-prone node
  // (named by a flap/degrade action) that exhausts its retries in steady
  // state is quarantined -- its daemon is sick, not gone, and a later
  // half-open probe can re-admit it.  Everything else keeps the
  // crash-fault semantics: exhaustion abandons the node for good.
  if (probe || (steady_state_ && cluster_.fault_injector().daemon_gray_prone(node))) {
    round.quarantined.push_back(node);
    // Same safety net as the skip path: a failed resume leaves the node's
    // processes ptrace-suspended, so force the detach-resume (idempotent
    // if the sick daemon eventually works its backlog off).
    if (round.request.kind == Request::Kind::kResume) force_resume_node(index, now);
  } else {
    abandon_node(node, now);
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
  cluster_.fault_injector().report().add(now, "daemon-lost", str::format("node=%d", node),
                                         ranks);
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
