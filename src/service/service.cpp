#include "service/service.hpp"

#include <algorithm>

#include "control/estimator.hpp"
#include "fault/injector.hpp"
#include "support/common.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::service {

namespace {

/// Modelled cost of scanning one statistics record at the configuration
/// break (same figure the budget controller charges).
constexpr sim::TimeNs kScanCostPerRecord = 200;

}  // namespace

// ---------------------------------------------------------------------------
// BreakAgent: lives on rank 0's node.  The service mutates it exclusively
// through scheduled messages; the VT_confsync break handler reads it.
// ---------------------------------------------------------------------------

struct ControlService::BreakAgent {
  ControlService& service;
  machine::Cluster& cluster;
  std::shared_ptr<vt::StagedUpdate> staged;
  int node = 0;          ///< rank 0's node
  int service_node = 0;  ///< the tool node

  control::OverheadEstimator estimator;

  struct PendingProgram {
    SessionId session = 0;
    std::uint32_t seq = 0;
    vt::FilterProgram program;
    bool ack = false;
  };
  std::vector<PendingProgram> pending;

  struct Subscription {
    int client_node = 0;
    std::vector<std::uint8_t> match;  ///< per-function-id membership
    const DeltaSink* sink = nullptr;  ///< in the session's endpoint (stable)
    /// Remaining delivery credits; a window arriving with none left is
    /// dropped-and-counted, never buffered.
    int credits = 0;
  };
  /// (session id, arrival serial): iteration runs in session-id order, then
  /// arrival order, so per-window fan-out is independent of the order
  /// sessions' subscriptions arrived in.
  using SubKey = std::pair<SessionId, std::uint64_t>;
  std::map<SubKey, Subscription> subs;
  std::uint64_t sub_serial = 0;

  /// Slow-subscriber bounds (from ServiceOptions).
  int sub_window = 0;
  sim::TimeNs sub_stall = 0;

  /// Seq counter for the service's own (kServiceSession) programs, so
  /// arbitration flips keep their relative order under the sort.
  std::uint32_t service_seq = 0;

  bool stop_requested = false;
  bool stop_staged = false;
  std::string sentinel;
  std::uint64_t syncs = 0;

  BreakAgent(ControlService& svc, machine::Cluster& c, std::shared_ptr<vt::StagedUpdate> s,
             int agent_node, int svc_node)
      : service(svc), cluster(c), staged(std::move(s)), node(agent_node),
        service_node(svc_node) {}

  /// A delivered delta's credit comes home to the subscription that spent
  /// it; one returning after its session detached is simply dropped.
  void return_credit(const SubKey& key) {
    const auto it = subs.find(key);
    if (it != subs.end() && it->second.credits < sub_window) ++it->second.credits;
  }

  void subscribe(SessionId session, Subscription sub) {
    subs.emplace(SubKey{session, sub_serial++}, std::move(sub));
  }

  void unsubscribe(SessionId session) {
    subs.erase(subs.lower_bound(SubKey{session, 0}),
               subs.upper_bound(SubKey{session, std::numeric_limits<std::uint64_t>::max()}));
  }

  sim::TimeNs on_break(vt::VtLib& vt) {
    sim::Engine& engine = vt.process().engine();
    const sim::TimeNs now = engine.now();
    ++syncs;
    const control::Estimate estimate = estimator.update(vt, now);

    // Subscription push-down: each session receives only its matching
    // functions' activity, fanned out from the reduction root -- never the
    // full event stream.  Deliveries spend a credit that returns after the
    // round trip (plus the modelled client processing, stretched by any
    // stall fault on the client's node); a subscriber out of credits is a
    // slow subscriber, and its window is dropped-and-counted rather than
    // buffered without bound.
    std::uint64_t window_drops = 0;
    if (estimate.window > 0 && !subs.empty()) {
      telemetry::Registry& reg = telemetry::current();
      const fault::FaultInjector& injector = cluster.fault_injector();
      for (auto& [key, sub] : subs) {
        if (sub.credits <= 0) {
          ++window_drops;
          reg.add(reg.metrics().service_sub_drops);
          continue;
        }
        SubscriptionDelta delta;
        delta.session = key.first;
        delta.sync = syncs;
        for (const auto& fe : estimate.functions) {
          if (fe.fn < sub.match.size() && sub.match[fe.fn] != 0) {
            ++delta.functions;
            delta.pairs += fe.pairs + fe.suppressed;
          }
        }
        const sim::TimeNs delay =
            cluster.message_delay(node, sub.client_node, kDeltaBytes, now);
        const DeltaSink* sink = sub.sink;
        cluster.engine().schedule_at(now + delay, [sink, delta] { (*sink)(delta); });
        reg.add(reg.metrics().service_sub_deliveries);
        reg.add(reg.metrics().service_sub_events, delta.pairs);
        --sub.credits;
        // The whole return path is priced here, on the agent's node:
        // delivery leg, client processing (stall-fault scaled), ack leg.
        sim::TimeNs processing = sub_stall;
        if (processing > 0) {
          processing = static_cast<sim::TimeNs>(static_cast<double>(processing) *
                                                injector.stall_factor(sub.client_node, now));
        }
        const sim::TimeNs back =
            cluster.message_delay(sub.client_node, node, 16, now + delay + processing);
        BreakAgent* self = this;
        cluster.engine().schedule_at(now + delay + processing + back,
                                     [self, key = key] { self->return_credit(key); });
      }
    }

    // Merge pending directive programs in (session, seq) order -- the
    // serialization guarantee: whatever order sessions' messages arrived
    // in, the image state equals applying them in session-id order, with
    // the service's own corrections (kServiceSession) last.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const PendingProgram& a, const PendingProgram& b) {
                       return a.session != b.session ? a.session < b.session
                                                     : a.seq < b.seq;
                     });
    WindowReport report;
    vt::FilterProgram program;
    for (PendingProgram& p : pending) {
      program.insert(program.end(), p.program.begin(), p.program.end());
      if (p.ack) report.acks.emplace_back(p.session, p.seq);
    }
    pending.clear();
    if (stop_requested && !stop_staged) {
      program.push_back({/*activate=*/false, sentinel});
      stop_staged = true;
    }
    if (!program.empty()) {
      // Safe to overwrite: the previous confsync ended in a barrier, so
      // every rank has applied the prior staged program already.
      staged->program = program;
      staged->probe_removals.clear();
      ++staged->version;
    }

    report.sync = syncs;
    report.time = now;
    report.window = estimate.window;
    report.measured_fraction = estimate.overhead_fraction();
    report.lines.reserve(estimate.functions.size());
    for (const auto& fe : estimate.functions) {
      report.lines.push_back({fe.fn, fe.pairs, fe.suppressed});
    }
    report.applied = program;
    report.sub_drops = window_drops;

    const std::int64_t bytes = 128 +
                               24 * static_cast<std::int64_t>(report.lines.size()) +
                               16 * static_cast<std::int64_t>(report.acks.size()) +
                               vt::serialized_size(report.applied);
    const sim::TimeNs delay = cluster.message_delay(node, service_node, bytes, now);
    ControlService* svc = &service;
    cluster.engine().schedule_at(now + delay, [svc, report] { svc->on_window(report); });

    return kScanCostPerRecord * static_cast<sim::TimeNs>(report.lines.size());
  }
};

// ---------------------------------------------------------------------------
// ControlService
// ---------------------------------------------------------------------------

ControlService::ControlService(dynprof::Launch& launch, dynprof::DynprofTool& tool,
                               ServiceOptions options)
    : launch_(launch),
      tool_(tool),
      cluster_(launch.cluster()),
      engine_(launch.cluster().engine()),
      options_(options),
      node_(tool.tool_thread().process().node()),
      agent_node_(launch.job().process(0).node()),
      symbols_(launch.options().app->symbols),
      admission_(symbols_, control::probe_pair_price(launch.vt(0)),
                 AdmissionOptions{options.budget_fraction, options.default_rate_hz}),
      patch_ready_(std::make_unique<sim::Condition>(engine_)) {
  DT_EXPECT(options.sub_window >= 1, "ServiceOptions::sub_window must be >= 1 (got ",
            options.sub_window, "): every subscriber holds a credit window");
  agent_ = std::make_unique<BreakAgent>(*this, cluster_, launch.staged(), agent_node_, node_);
  agent_->sub_window = options.sub_window;
  agent_->sub_stall = options.sub_client_stall;
  BreakAgent* agent = agent_.get();
  launch.vt(0).set_break_handler([agent](vt::VtLib& vt) { return agent->on_break(vt); });
}

ControlService::~ControlService() = default;

void ControlService::register_session(SessionId id, int client_node, ResponseSink responses,
                                      DeltaSink deltas) {
  DT_EXPECT(id <= kMaxSessionId, "session id ", id, " is above ", kMaxSessionId,
            ": session ids index dense tables, so number sessions from 0");
  if (id >= endpoints_.size()) {
    endpoints_.resize(id + 1);
    deferred_.resize(id + 1, 0);
  }
  endpoints_[id] = SessionEndpoint{client_node, std::move(responses), std::move(deltas)};
}

void ControlService::start() {
  DT_EXPECT(!started_, "service already started");
  started_ = true;
  engine_.spawn(patch_loop(), "service.patch", sim::Engine::SpawnOptions{.daemon = true});
}

void ControlService::submit(const Request& request) {
  if (request.session >= endpoints_.size() || !endpoints_[request.session].responses) return;
  telemetry::Registry& reg = telemetry::current();
  reg.add(reg.metrics().service_commands);
  // Once shutting down, only reports and detaches are still served.
  if (shutting_down_ && request.kind != CommandKind::kReport &&
      request.kind != CommandKind::kDetach) {
    respond(request, Status::kShutdown);
    return;
  }
  switch (request.kind) {
    case CommandKind::kAttach:
      ++active_sessions_;
      reg.set(reg.metrics().service_sessions_active,
              static_cast<std::int64_t>(active_sessions_));
      respond(request, Status::kOk);
      return;
    case CommandKind::kInstrument:
      handle_instrument(request);
      return;
    case CommandKind::kConfsync:
      handle_confsync(request);
      return;
    case CommandKind::kSubscribe:
      handle_subscribe(request);
      return;
    case CommandKind::kReport: {
      Response response;
      response.session = request.session;
      response.seq = request.seq;
      response.status = Status::kOk;
      response.projected_fraction = admission_.priced_fraction();
      response.windows = windows_.size();
      send_response(std::move(response));
      return;
    }
    case CommandKind::kDetach:
      handle_detach(request);
      return;
  }
}

int ControlService::session_load(SessionId session) const { return deferred_[session]; }

void ControlService::settle(SessionId session) {
  DT_ASSERT(deferred_[session] > 0, "settling a session with nothing deferred");
  --deferred_[session];
}

/// Attempt one admission by ids.  Returns false iff the request was denied
/// (nothing responded, nothing changed); any other outcome is resolved.
bool ControlService::try_admit(SessionId session, std::uint32_t seq,
                               const std::vector<image::FunctionId>& fns,
                               sim::TimeNs deadline) {
  telemetry::Registry& reg = telemetry::current();
  ++admission_evals_;
  reg.add(reg.metrics().service_admission_evals);
  const AdmitResult result = admission_.admit(session, fns);
  if (result.decision == AdmitDecision::kDenied) return false;

  const Status status = result.decision == AdmitDecision::kAdmitted ? Status::kAdmitted
                                                                    : Status::kDegraded;
  reg.add(status == Status::kAdmitted ? reg.metrics().service_admits
                                      : reg.metrics().service_degrades);
  if (!result.directives.empty()) stage_service_program(result.directives);
  if (!result.install.empty()) {
    PatchOp op;
    op.install = result.install;
    op.response.session = session;
    op.response.seq = seq;
    op.response.status = status;
    op.response.projected_fraction = result.projected_fraction;
    op.deadline = deadline;
    enqueue_patch(std::move(op));
  } else {
    // Every requested probe is already installed for another session.
    respond(session, seq, status, result.projected_fraction);
  }
  return true;
}

void ControlService::handle_instrument(const Request& request) {
  telemetry::Registry& reg = telemetry::current();
  // Per-session overload bound: a session with this many commands already
  // deferred (queued or patching) gets an immediate, deterministic kShed
  // instead of growing the backlog.
  if (options_.max_session_inflight > 0 &&
      session_load(request.session) >= options_.max_session_inflight) {
    ++shed_commands_;
    reg.add(reg.metrics().service_shed_commands);
    respond(request, Status::kShed);
    return;
  }
  // Names resolve once, here; a queued request is retried by id.  An
  // empty set or an unknown name is malformed.
  std::vector<image::FunctionId> fns;
  fns.reserve(request.functions.size());
  for (const std::string& name : request.functions) {
    const image::FunctionInfo* info = symbols_->find(name);
    if (info == nullptr) break;
    fns.push_back(info->id);
  }
  if (fns.empty() || fns.size() < request.functions.size()) {
    respond(request, Status::kError);
    return;
  }
  std::sort(fns.begin(), fns.end());
  fns.erase(std::unique(fns.begin(), fns.end()), fns.end());

  const sim::TimeNs deadline =
      options_.request_deadline > 0 ? engine_.now() + options_.request_deadline : 0;
  if (try_admit(request.session, request.seq, fns, deadline)) return;
  if (options_.queue_timeout <= 0) {
    reg.add(reg.metrics().service_denials);
    respond(request, Status::kDenied, admission_.priced_fraction());
    return;
  }
  if (options_.max_queue_depth > 0 && queue_.size() >= options_.max_queue_depth) {
    ++shed_commands_;
    reg.add(reg.metrics().service_shed_commands);
    respond(request, Status::kShed, admission_.priced_fraction());
    return;
  }
  reg.add(reg.metrics().service_queued);
  ++deferred_[request.session];
  ++queued_admits_;
  // Denied at the current version, so only its expiry can make the next
  // retry scan act on it.
  const std::uint64_t version = admission_.version();
  const QueuedAdmit& entry = queue_.emplace_back(QueuedAdmit{
      request.session, request.seq, std::move(fns), engine_.now(), deadline, version, version});
  earliest_expiry_ = std::min(earliest_expiry_, expiry(entry));
}

void ControlService::handle_confsync(const Request& request) {
  if (request.directives.empty()) {
    respond(request, Status::kOk);
    return;
  }
  // Deferred: the response is the ack the break agent sends once the next
  // safe point has applied this program, so the measured latency includes
  // the wait for the safe point -- the paper's VT_confsync semantics.
  forward_to_agent(request_bytes(request),
                   [session = request.session, seq = request.seq,
                    program = request.directives](BreakAgent& agent) mutable {
                     agent.pending.push_back({session, seq, std::move(program), /*ack=*/true});
                   });
}

void ControlService::handle_subscribe(const Request& request) {
  const std::vector<image::FunctionId> matched = symbols_->match(request.pattern);
  const SessionEndpoint& endpoint = endpoints_[request.session];
  if (matched.empty() || !endpoint.deltas) {
    respond(request, Status::kError);
    return;
  }
  BreakAgent::Subscription sub;
  sub.client_node = endpoint.client_node;
  sub.credits = options_.sub_window;
  sub.match.assign(symbols_->size(), 0);
  for (const image::FunctionId fn : matched) sub.match[fn] = 1;
  sub.sink = &endpoint.deltas;
  forward_to_agent(64 + static_cast<std::int64_t>(request.pattern.size()),
                   [session = request.session, sub = std::move(sub)](BreakAgent& agent) mutable {
                     agent.subscribe(session, std::move(sub));
                   });
  respond(request, Status::kOk);
}

void ControlService::handle_detach(const Request& request) {
  const ReleaseResult released = admission_.release(request.session);
  if (!released.directives.empty()) stage_service_program(released.directives);
  if (!released.remove.empty()) {
    PatchOp op;
    op.remove = released.remove;
    op.response.session = kServiceSession;  // nobody waits on removals
    enqueue_patch(std::move(op));
  }
  forward_to_agent(64, [session = request.session](BreakAgent& agent) {
    agent.unsubscribe(session);
  });
  if (active_sessions_ > 0) --active_sessions_;
  telemetry::Registry& reg = telemetry::current();
  reg.set(reg.metrics().service_sessions_active,
          static_cast<std::int64_t>(active_sessions_));
  respond(request, Status::kOk);
  // A grant release is headroom for whoever waits in the queue.
  retry_queue();
}

void ControlService::on_window(const WindowReport& report) {
  if (report.window > 0) {
    const double seconds = sim::to_seconds(report.window);
    for (const WindowReport::RateLine& line : report.lines) {
      admission_.update_rate(line.fn,
                             static_cast<double>(line.pairs + line.suppressed) / seconds);
    }
  }
  if (!report.applied.empty()) admission_.replay(report.applied);
  sub_drops_ += report.sub_drops;
  const double before = admission_.priced_fraction();
  const ArbitrateResult arbitration = admission_.arbitrate();
  if (!arbitration.directives.empty()) stage_service_program(arbitration.directives);
  if (arbitration.fairshare_flips > 0) {
    fairshare_flips_ += arbitration.fairshare_flips;
    telemetry::Registry& reg = telemetry::current();
    reg.add(reg.metrics().service_fairshare_flips, arbitration.fairshare_flips);
  }

  WindowRecord record;
  record.sync = report.sync;
  record.time = report.time;
  record.window = report.window;
  record.measured_fraction = report.measured_fraction;
  record.priced_before = before;
  record.priced_after = admission_.priced_fraction();
  record.flips = static_cast<std::uint32_t>(arbitration.flipped.size());
  record.at_floor = arbitration.at_floor;
  windows_.push_back(record);

  for (const auto& [session, seq] : report.acks) respond(session, seq, Status::kOk);
  retry_queue();
}

sim::TimeNs ControlService::expiry(const QueuedAdmit& entry) const {
  const sim::TimeNs timeout = entry.enqueued + options_.queue_timeout;
  return entry.deadline > 0 ? std::min(timeout, entry.deadline) : timeout;
}

void ControlService::retry_queue() {
  // initiate_shutdown drains the queue, and submit refuses instrument
  // requests from then on.
  DT_ASSERT(!shutting_down_ || queue_.empty(), "admission queue non-empty after shutdown");
  const sim::TimeNs now = engine_.now();
  // Every entry was denied at the version the last full scan began with
  // (or, queued since, at the same version), and none has expired: a scan
  // would cancel, admit and deny nothing.
  if (admission_.version() == scanned_version_ && now < earliest_expiry_) return;
  const bool expiry_only = admission_.version() == scanned_version_ && now >= earliest_expiry_;
  scanned_version_ = admission_.version();
  earliest_expiry_ = std::numeric_limits<sim::TimeNs>::max();
  telemetry::Registry& reg = telemetry::current();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    QueuedAdmit& entry = queue_[i];
    ++queue_visits_;
    expiry_scan_visits_ += expiry_only ? 1 : 0;
    // Epoch advances since it was queued: added to queue_epoch_waits_ when
    // the entry leaves the queue below.
    const std::uint64_t waited = admission_.version() - entry.queued_at;
    // End-to-end deadline: a request still waiting past it is canceled
    // before it can consume budget -- the client has long stopped caring.
    if (entry.deadline > 0 && now >= entry.deadline) {
      ++deadline_cancels_;
      reg.add(reg.metrics().service_deadline_cancels);
      respond(entry.session, entry.seq, Status::kCanceled, admission_.priced_fraction());
      settle(entry.session);
      queue_epoch_waits_ += waited;
      continue;
    }
    // Nothing a denial reads has changed since this entry's last one, so
    // the admission would deny it again: skip the call.
    if (entry.denied_at != admission_.version()) {
      if (try_admit(entry.session, entry.seq, entry.fns, entry.deadline)) {
        settle(entry.session);
        queue_epoch_waits_ += waited;
        continue;
      }
      entry.denied_at = admission_.version();
    }
    if (now - entry.enqueued >= options_.queue_timeout) {
      reg.add(reg.metrics().service_denials);
      respond(entry.session, entry.seq, Status::kDenied, admission_.priced_fraction());
      settle(entry.session);
      queue_epoch_waits_ += waited;
      continue;
    }
    earliest_expiry_ = std::min(earliest_expiry_, expiry(entry));
    if (kept != i) queue_[kept] = std::move(entry);
    ++kept;
  }
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept), queue_.end());
}

void ControlService::initiate_shutdown(const std::string& sentinel_function) {
  shutting_down_ = true;
  for (const QueuedAdmit& entry : queue_) {
    respond(entry.session, entry.seq, Status::kShutdown);
    settle(entry.session);
    queue_epoch_waits_ += admission_.version() - entry.queued_at;
  }
  queue_.clear();
  forward_to_agent(64, [sentinel = sentinel_function](BreakAgent& agent) {
    agent.stop_requested = true;
    agent.sentinel = sentinel;
  });
}

void ControlService::stage_service_program(vt::FilterProgram program) {
  if (program.empty()) return;
  const std::int64_t bytes = vt::serialized_size(program);
  forward_to_agent(bytes, [program = std::move(program)](BreakAgent& agent) mutable {
    agent.pending.push_back(
        {kServiceSession, agent.service_seq++, std::move(program), /*ack=*/false});
  });
}

void ControlService::respond(SessionId session, std::uint32_t seq, Status status,
                             double projected) {
  Response response;
  response.session = session;
  response.seq = seq;
  response.status = status;
  response.projected_fraction = projected;
  send_response(std::move(response));
}

void ControlService::send_response(Response response) {
  if (response.session == kServiceSession) return;
  // Every other session passed submit(), so it is registered.
  const SessionEndpoint* endpoint = &endpoints_[response.session];
  ++responses_sent_;
  const sim::TimeNs now = engine_.now();
  const sim::TimeNs delay =
      cluster_.message_delay(node_, endpoint->client_node, response_bytes(response), now);
  cluster_.engine().schedule_at(now + delay, [endpoint, response = std::move(response)] {
    endpoint->responses(response);
  });
}

void ControlService::enqueue_patch(PatchOp op) {
  if (op.response.session != kServiceSession) ++deferred_[op.response.session];
  patch_queue_.push_back(std::move(op));
  patch_ready_->notify_one();
}

sim::Coro<void> ControlService::patch_loop() {
  while (true) {
    while (patch_queue_.empty()) co_await patch_ready_->wait();
    std::vector<PatchOp> batch(std::make_move_iterator(patch_queue_.begin()),
                               std::make_move_iterator(patch_queue_.end()));
    patch_queue_.clear();

    // Any number of queued edits costs one suspend/patch/resume cycle.  A
    // batch can carry remove->install (detach, then another session re-admits)
    // or install->remove cycles for one function; only the net effect against
    // the tool's current probe state is patched.
    std::vector<image::FunctionId> order;
    std::map<image::FunctionId, bool> net_install;
    for (const PatchOp& op : batch) {
      for (const image::FunctionId fn : op.install) {
        if (net_install.emplace(fn, true).second) order.push_back(fn);
        net_install[fn] = true;
      }
      for (const image::FunctionId fn : op.remove) {
        if (net_install.emplace(fn, false).second) order.push_back(fn);
        net_install[fn] = false;
      }
    }
    std::vector<image::FunctionId> installs;
    std::vector<image::FunctionId> removes;
    for (const image::FunctionId fn : order) {
      const bool install = net_install[fn];
      if (install != tool_.instrumented(fn)) (install ? installs : removes).push_back(fn);
    }

    if (!installs.empty()) co_await tool_.insert_functions(installs);
    if (!removes.empty()) co_await tool_.remove_functions(removes);
    const dpcl::DpclApplication* app = tool_.application();

    // Daemon death: every response from the patch path names the lost
    // nodes, never hangs.  Not just on growth during this batch -- the
    // loss may land on a response-less batch (a detach-driven removal),
    // and any later grant is equally incomplete: its probes cannot reach
    // the lost ranks.
    std::vector<int> lost;
    if (app != nullptr && !app->lost_nodes().empty()) {
      lost.assign(app->lost_nodes().begin(), app->lost_nodes().end());
    }
    telemetry::Registry& reg = telemetry::current();
    for (PatchOp& op : batch) {
      if (op.response.session == kServiceSession) continue;
      settle(op.response.session);
      if (!lost.empty()) {
        op.response.status = Status::kDaemonLost;
        op.response.lost_nodes = lost;
        reg.add(reg.metrics().service_daemon_lost_errors);
      } else if (op.deadline > 0 && engine_.now() > op.deadline) {
        // The batch landed past the request's end-to-end deadline (the
        // probes stay -- the grant is real until detach -- but the client's
        // wait is resolved with an explicit cancel, not silence).
        op.response.status = Status::kCanceled;
        ++deadline_cancels_;
        reg.add(reg.metrics().service_deadline_cancels);
      }
      send_response(std::move(op.response));
    }
  }
}

template <typename Mutate>
void ControlService::forward_to_agent(std::int64_t bytes, Mutate mutate) {
  BreakAgent* agent = agent_.get();
  const sim::TimeNs now = engine_.now();
  const sim::TimeNs delay = cluster_.message_delay(node_, agent_node_, bytes, now);
  cluster_.engine()
      .schedule_at(now + delay, [agent, mutate = std::move(mutate)]() mutable { mutate(*agent); });
}

}  // namespace dyntrace::service
