// DpclApplication: the instrumenter-side handle to a parallel application
// (DPCL's Application/Process classes, paper §3.2).
//
// Connecting contacts the super daemon of every node hosting the target,
// which authenticates the user and forks communication daemons; those then
// attach to the local processes and parse their images.  After that,
// instrumentation operations can be broadcast to all processes.  Operations
// are *asynchronous* -- a message per node, arriving with differing delays
// -- and the caller chooses whether to wait for the acks (blocking) or to
// return after the send phase, mirroring DPCL's dual API.  Either way every
// broadcast is reliable: acks are collected, silent nodes are retried, and
// a node that never answers is abandoned or quarantined (DESIGN.md §9).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dpcl/daemon.hpp"
#include "dpcl/health.hpp"
#include "proc/process.hpp"

namespace dyntrace::dpcl {

/// Message sent by a CallbackOp snippet back to the instrumenter.
struct Callback {
  std::string tag;
  int pid = 0;
};

class DpclApplication {
 public:
  /// `tool_node` is where the instrumenter runs; `super_daemons` is the
  /// cluster-wide daemon infrastructure (one per node, started).
  DpclApplication(machine::Cluster& cluster, proc::ParallelJob& job, int tool_node,
                  std::vector<SuperDaemon*> super_daemons);
  DpclApplication(const DpclApplication&) = delete;
  DpclApplication& operator=(const DpclApplication&) = delete;

  proc::ParallelJob& job() { return job_; }
  bool connected() const { return connected_; }

  /// Nodes hosting at least one target process.
  const std::vector<int>& target_nodes() const { return nodes_; }

  // --- connection -------------------------------------------------------------

  /// Authenticate with each node's super daemon, fork comm daemons, attach
  /// to and parse every process image.  Blocking.  Also wires every
  /// process's DPCL_callback channel to this application.
  sim::Coro<void> connect(proc::SimThread& tool);

  // --- instrumentation operations ----------------------------------------------
  //
  // Each broadcasts one request per target node.  With blocking=true the
  // call returns only after every daemon acknowledged completion (or was
  // given up on); with blocking=false it returns after the send phase and
  // the ack phase runs detached, costing the tool thread nothing.

  sim::Coro<void> install_probe(proc::SimThread& tool, image::FunctionId fn,
                                image::ProbeWhere where, image::SnippetPtr snippet,
                                bool activate, bool blocking);
  sim::Coro<void> remove_function_probes(proc::SimThread& tool, image::FunctionId fn,
                                         bool blocking);
  sim::Coro<void> set_function_probes_active(proc::SimThread& tool, image::FunctionId fn,
                                             bool active, bool blocking);
  sim::Coro<void> suspend_all(proc::SimThread& tool, bool blocking);
  sim::Coro<void> resume_all(proc::SimThread& tool, bool blocking);
  sim::Coro<void> set_flag_all(proc::SimThread& tool, const std::string& flag,
                               std::int64_t value, bool blocking);
  /// One-shot snippet execution in every target process (inferior RPC).
  sim::Coro<void> execute_snippet(proc::SimThread& tool, image::SnippetPtr snippet,
                                  bool blocking);

  /// Callbacks from dynamically inserted CallbackOp snippets.
  sim::Mailbox<Callback>& callbacks() { return callbacks_; }

  std::uint64_t requests_sent() const { return requests_sent_; }

  // --- fault tolerance --------------------------------------------------------

  /// Nodes abandoned after exhausting request retries; their processes are
  /// marked Lost and skipped by later requests.
  const std::set<int>& lost_nodes() const { return lost_nodes_; }
  /// Pids living on lost nodes, ascending.
  std::vector<int> lost_pids() const;

  // --- gray-failure health ----------------------------------------------------

  /// Per-node health scores + circuit breakers fed by the request path.
  const HealthTracker& health() const { return health_; }
  /// Marks the end of the setup phase (connect/create/instrument): from
  /// here on, broadcasts may quarantine open-breaker nodes instead of
  /// waiting out their retries.  Setup-phase requests always run the full
  /// protocol -- skipping a create or attach would wedge the job, and
  /// abandonment semantics there are unchanged.
  void set_steady_state(bool steady) { steady_state_ = steady; }
  bool steady_state() const { return steady_state_; }
  /// Nodes the *latest* broadcast quarantine-skipped or failed to probe,
  /// ascending -- the caller's signal to degrade those nodes' coverage for
  /// that operation (they are not lost; a later probe can re-admit them).
  const std::vector<int>& quarantined_last_broadcast() const {
    return quarantined_last_broadcast_;
  }

 private:
  struct Round;
  enum class Send : std::uint8_t {
    kFirst,      ///< the send phase
    kRetry,      ///< after a missed deadline, with backoff
    kStraggler,  ///< early resend to a node silent long after its peers
  };

  /// One reliable broadcast.  Send phase: every live, admitted node gets
  /// its marshalled request with one request id; then collect() runs the
  /// ack phase, inline when `blocking`, detached on the engine otherwise.
  sim::Coro<void> broadcast(proc::SimThread& tool, Request prototype, bool blocking);
  /// Message every slot of `round` that has not acked yet.  Marshalling is
  /// charged to `tool`, or to the detached ack phase when null.
  sim::Coro<void> send(proc::SimThread* tool, Round& round, Send kind);
  /// The ack phase: one aggregated wait bounded by fault.request_deadline
  /// (with an early resend to stragglers), backoff retries of only the
  /// silent nodes, then abandonment or quarantine of the nodes that never
  /// acked.
  sim::Coro<void> collect(proc::SimThread* tool, std::shared_ptr<Round> round);
  /// A node that never acked `round`'s request: quarantined when it was a
  /// half-open probe or is gray-prone in steady state, abandoned otherwise.
  void settle_silent(Round& round, std::size_t index, bool probe, sim::TimeNs now);
  void abandon_node(int node, sim::TimeNs now);
  /// The detach-resume safety net: deliver resume() to a node's processes
  /// without abandoning it, so a quarantined resume broadcast cannot leave
  /// them ptrace-suspended across a barrier (which would wedge the job).
  void force_resume_node(std::size_t index, sim::TimeNs now);

  machine::Cluster& cluster_;
  proc::ParallelJob& job_;
  int tool_node_;
  std::vector<SuperDaemon*> super_daemons_;

  std::vector<int> nodes_;                    ///< nodes hosting target processes
  std::vector<std::vector<int>> node_pids_;   ///< pids per entry of nodes_
  std::vector<std::unique_ptr<CommDaemon>> comm_daemons_;

  sim::Mailbox<Callback> callbacks_;
  bool connected_ = false;
  std::uint64_t requests_sent_ = 0;
  std::set<int> lost_nodes_;
  std::uint64_t next_request_id_ = 1;
  HealthTracker health_;
  bool steady_state_ = false;
  std::vector<int> quarantined_last_broadcast_;
};

}  // namespace dyntrace::dpcl
