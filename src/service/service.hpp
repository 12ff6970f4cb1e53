// ControlService: the multi-tenant interactive control service
// (DESIGN.md §13).
//
// One long-lived service process on the tool node multiplexes many
// concurrent sessions onto a single shared dynprof attachment:
//
//   * requests arrive as sized messages on the tool node and are
//     decided inline (admission pricing, subscription validation) or
//     deferred (patching, safe-point application, admission queue);
//   * physical probe edits batch through one patch executor coroutine that
//     drives DynprofTool::insert_functions / remove_functions, so any
//     number of sessions costs one suspend/patch/resume cycle per batch --
//     and once a daemon death abandons a node, every patch-path response
//     reports kDaemonLost with the lost node list (the probes cannot reach
//     those ranks), never a hang;
//   * filter directives (session confsyncs, admission degrades, budget
//     arbitration) travel to a *break agent* homed on rank 0's node, which
//     merges them in (session, seq) order at each VT_confsync safe point --
//     two sessions staging conflicting updates at one safe point therefore
//     serialize deterministically, with the image state equal to applying
//     them in session-id order;
//   * the break agent also runs the overhead estimator per window, fans
//     subscription deltas out to sessions straight from rank 0 (the stats
//     overlay root -- sessions never receive the full event stream), and
//     reports rates back so the admission controller re-arbitrates.
//
// Every hop between the service, the break agent and the sessions is a
// scheduled message with a Cluster::message_delay latency.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dynprof/launch.hpp"
#include "dynprof/tool.hpp"
#include "service/admission.hpp"
#include "service/session.hpp"
#include "sim/sync.hpp"

namespace dyntrace::service {

struct ServiceOptions {
  double budget_fraction = 0.05;
  /// Assumed pairs/sec for not-yet-observed functions.
  double default_rate_hz = 1000.0;
  /// How long a denied instrument request may wait in the admission queue
  /// for headroom before kDenied is surfaced (0 = fail fast).
  sim::TimeNs queue_timeout = sim::seconds(30);

  // --- overload protection (DESIGN.md §14.3) --------------------------------
  // All bounds default off so a small deployment behaves exactly as before;
  // a storm-facing deployment sets them and takes deterministic kShed /
  // kCanceled responses instead of unbounded queues.

  /// Bound on the admission queue; a denial that would queue past it is
  /// shed (kShed) instead.  0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// Bound on one session's deferred commands (queued admissions plus
  /// patch responses in flight); excess instruments are shed.  0 = off.
  int max_session_inflight = 0;
  /// End-to-end deadline per instrument request, from service receipt to
  /// response.  A request still queued past it is canceled (kCanceled); a
  /// patch that lands after it responds kCanceled so the client's wait is
  /// bounded by the service, not just its own timer.  0 = off.
  sim::TimeNs request_deadline = 0;
  /// Subscription credit window: deltas in flight to one subscriber before
  /// further windows are dropped-and-counted instead of buffered without
  /// bound.  Credits return after the delivery round trip (client stall
  /// faults slow the return leg, which is what makes a subscriber "slow").
  /// 0 = unbounded (legacy fire-and-forget).
  int sub_window = 4;
  /// Modelled client-side processing per delta before its credit returns.
  sim::TimeNs sub_client_stall = 0;
};

/// One safe-point window as the service saw it: the measured overhead of
/// the last window, and the priced (admission-intent) overhead before and
/// after arbitration.  The budget invariant the bench gates on is
/// priced_after <= budget OR at_floor, for every window.
struct WindowRecord {
  std::uint64_t sync = 0;
  sim::TimeNs time = 0;
  sim::TimeNs window = 0;
  double measured_fraction = 0.0;
  double priced_before = 0.0;
  double priced_after = 0.0;
  std::uint32_t flips = 0;
  bool at_floor = false;
};

class ControlService {
 public:
  /// Executed on the session's client-node engine when a response / delta
  /// arrives (drivers bump counters or feed a mailbox from these).
  using ResponseSink = std::function<void(const Response&)>;
  using DeltaSink = std::function<void(const SubscriptionDelta&)>;

  /// Wires the rank-0 break agent immediately (before Engine::run); the
  /// service's own coroutines start with start().
  ControlService(dynprof::Launch& launch, dynprof::DynprofTool& tool,
                 ServiceOptions options);
  ~ControlService();
  ControlService(const ControlService&) = delete;
  ControlService& operator=(const ControlService&) = delete;

  /// Declare a session's response/delta delivery endpoints (host-side
  /// setup, before Engine::run).  `id` is at most kMaxSessionId.
  void register_session(SessionId id, int client_node, ResponseSink responses,
                        DeltaSink deltas = {});

  /// Spawn the patch executor.  Call from a coroutine on the tool node
  /// after DynprofTool::attached() has fired (probe edits are only valid
  /// once the target is released into main()).
  void start();

  /// Hand one request to the service.  Session drivers get here via a
  /// scheduled message with message_delay latency.  A request from a
  /// session that was never registered has nobody to answer and is
  /// dropped unseen.
  void submit(const Request& request);

  /// Stop accepting work and ask the break agent to stage a deactivate
  /// directive for `sentinel_function` at the next safe point -- the
  /// scenario applications watch that filter entry and exit collectively.
  void initiate_shutdown(const std::string& sentinel_function);

  sim::Engine& engine() { return engine_; }
  int node() const { return node_; }
  const std::vector<WindowRecord>& windows() const { return windows_; }
  const AdmissionController& admission() const { return admission_; }
  std::uint64_t responses_sent() const { return responses_sent_; }
  std::uint64_t shed_commands() const { return shed_commands_; }
  std::uint64_t deadline_cancels() const { return deadline_cancels_; }
  std::uint64_t fairshare_flips() const { return fairshare_flips_; }
  std::uint64_t sub_drops() const { return sub_drops_; }
  /// Calls into AdmissionController::admit (fresh requests and queue
  /// retries alike).
  std::uint64_t admission_evals() const { return admission_evals_; }
  /// Admission-queue entries examined by retry passes.
  std::uint64_t queue_visits() const { return queue_visits_; }
  /// Instrument requests that waited in the admission queue.
  std::uint64_t queued_admits() const { return queued_admits_; }
  /// Pricing-epoch advances the queued entries waited through, summed
  /// over entries (each counted up to when it left the queue).  A queued
  /// entry is re-priced only after the epoch moved, so admission_evals()
  /// never exceeds the instrument requests plus this.
  std::uint64_t queue_epoch_waits() const { return queue_epoch_waits_; }
  /// Queue entries visited by retry passes that an expiry, not an epoch
  /// advance, set off.  A pass that neither set off would change nothing
  /// and is skipped, so queue_visits() never exceeds queued_admits() +
  /// queue_epoch_waits() + this.
  std::uint64_t expiry_scan_visits() const { return expiry_scan_visits_; }

 private:
  struct BreakAgent;

  struct PatchOp {
    std::vector<std::string> install;
    std::vector<std::string> remove;
    /// Response to send once the batch lands; session == kServiceSession
    /// means no response (e.g. detach-driven removals).
    Response response;
    /// End-to-end deadline stamped at receipt (0 = none): a batch landing
    /// past it answers kCanceled.
    sim::TimeNs deadline = 0;
  };

  /// A denied instrument request waiting for headroom, by the ids its
  /// names resolved to on arrival (sorted, duplicate-free).
  struct QueuedAdmit {
    SessionId session = 0;
    std::uint32_t seq = 0;
    std::vector<image::FunctionId> fns;
    sim::TimeNs enqueued = 0;
    sim::TimeNs deadline = 0;  ///< 0 = none
    /// AdmissionController::version() at the last denial; while it is
    /// current, a retry would be denied again and is skipped.
    std::uint64_t denied_at = 0;
    /// version() when the entry joined the queue.
    std::uint64_t queued_at = 0;
  };

  /// Stable in endpoints_ (a deque that only grows at the back), so
  /// deliveries and subscriptions hold pointers to it.  An id that was
  /// never registered has no response sink.
  struct SessionEndpoint {
    int client_node = 0;
    ResponseSink responses;
    DeltaSink deltas;
  };

  /// The break agent's post-window report (built on rank 0's node,
  /// delivered to the service's).
  struct WindowReport {
    std::uint64_t sync = 0;
    sim::TimeNs time = 0;
    sim::TimeNs window = 0;
    double measured_fraction = 0.0;
    struct RateLine {
      image::FunctionId fn = 0;
      std::uint64_t pairs = 0;
      std::uint64_t suppressed = 0;
    };
    std::vector<RateLine> lines;
    vt::FilterProgram applied;
    std::vector<std::pair<SessionId, std::uint32_t>> acks;
    /// Deltas dropped this window because subscribers were out of credits.
    std::uint64_t sub_drops = 0;
  };

  void handle_instrument(const Request& request);
  bool try_admit(SessionId session, std::uint32_t seq,
                 const std::vector<image::FunctionId>& fns, sim::TimeNs deadline);
  /// One session's deferred commands: queued admissions + patches in flight.
  int session_load(SessionId session) const;
  /// One of the session's deferred commands resolved.
  void settle(SessionId session);
  void stage_service_program(vt::FilterProgram program);
  void handle_confsync(const Request& request);
  void handle_subscribe(const Request& request);
  void handle_detach(const Request& request);
  void on_window(const WindowReport& report);
  void retry_queue();
  /// When a queued entry's end-to-end deadline or queue timeout comes.
  sim::TimeNs expiry(const QueuedAdmit& entry) const;
  void respond(SessionId session, std::uint32_t seq, Status status, double projected = 0.0);
  void respond(const Request& request, Status status, double projected = 0.0) {
    respond(request.session, request.seq, status, projected);
  }
  void send_response(Response response);
  void enqueue_patch(PatchOp op);
  /// Schedule `mutate(agent)` on the break agent's node after the transfer.
  template <typename Mutate>
  void forward_to_agent(std::int64_t bytes, Mutate mutate);
  sim::Coro<void> patch_loop();

  dynprof::Launch& launch_;
  dynprof::DynprofTool& tool_;
  machine::Cluster& cluster_;
  sim::Engine& engine_;
  ServiceOptions options_;
  int node_ = 0;        ///< tool node
  int agent_node_ = 0;  ///< rank 0's node
  std::shared_ptr<const image::SymbolTable> symbols_;
  AdmissionController admission_;
  std::unique_ptr<BreakAgent> agent_;

  /// By session id.
  std::deque<SessionEndpoint> endpoints_;
  std::size_t active_sessions_ = 0;
  bool started_ = false;
  bool shutting_down_ = false;

  std::deque<PatchOp> patch_queue_;
  std::unique_ptr<sim::Condition> patch_ready_;
  std::vector<QueuedAdmit> queue_;  ///< FIFO; compacted in place by retry_queue
  /// admission_.version() when the last full retry scan began, and the
  /// earliest expiry() among the queued entries: while the version holds
  /// and no entry has expired, a scan would change nothing (DESIGN.md §13).
  std::uint64_t scanned_version_ = 0;
  sim::TimeNs earliest_expiry_ = std::numeric_limits<sim::TimeNs>::max();
  std::vector<WindowRecord> windows_;
  std::uint64_t responses_sent_ = 0;
  /// Deferred commands per session id: queued admissions plus patch
  /// responses in flight (overload accounting); sized with endpoints_.
  std::vector<int> deferred_;
  std::uint64_t shed_commands_ = 0;
  std::uint64_t deadline_cancels_ = 0;
  std::uint64_t fairshare_flips_ = 0;
  std::uint64_t sub_drops_ = 0;
  std::uint64_t admission_evals_ = 0;
  std::uint64_t queue_visits_ = 0;
  std::uint64_t queued_admits_ = 0;
  std::uint64_t queue_epoch_waits_ = 0;
  std::uint64_t expiry_scan_visits_ = 0;
};

}  // namespace dyntrace::service
