// DPCL daemon infrastructure (paper §3.2, Figure 5).
//
// One SuperDaemon runs on every node: it authenticates connecting users and
// forks one CommDaemon per user connection.  CommDaemons attach to the
// local processes of the target application and execute instrumentation
// requests (patch, activate, suspend, resume, poke memory).
//
// Requests travel as messages over the simulated interconnect with
// per-message jitter, so daemons on different nodes receive them at
// *different times* -- the asynchrony whose consequences (§3.4, Figure 6)
// dynprof's initialization protocol must handle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "proc/job.hpp"
#include "sim/mailbox.hpp"
#include "sim/sync.hpp"

namespace dyntrace::dpcl {

/// Ack collection for one broadcast: one slot per contacted daemon.  The
/// first ack of a slot counts; duplicated or retried acks of a settled slot
/// are ignored, so `done` fires exactly when every slot has acked or been
/// given up, and `majority` once half of the slots (rounded up) have acked.
/// `failed` counts per-process failures the daemons reported (e.g. a target
/// that exited before dispatch) -- the request completed, but not
/// everywhere.
struct AckState {
  AckState(sim::Engine& engine, int slots)
      : remaining(slots),
        acked_at(static_cast<std::size_t>(slots), kPending),
        majority(engine),
        done(engine) {}

  /// An ack for `slot` arrived at `now`.
  void ack(int slot, int failures, sim::TimeNs now);
  /// Stop waiting for `slot` (it will not be resent); a later ack is ignored.
  void give_up(int slot);
  bool acked(int slot) const { return acked_at[static_cast<std::size_t>(slot)] >= 0; }
  bool settled(int slot) const { return acked_at[static_cast<std::size_t>(slot)] != kPending; }

  static constexpr sim::TimeNs kPending = -1;
  static constexpr sim::TimeNs kGivenUp = -2;

  int remaining;
  int acks = 0;
  int failed = 0;
  std::vector<sim::TimeNs> acked_at;  ///< per slot: arrival, kPending or kGivenUp
  sim::Trigger majority;
  sim::Trigger done;

 private:
  void settle();
};

struct Request {
  enum class Kind : std::uint8_t {
    kConnect,           ///< to the super daemon: authenticate the user and
                        ///< fork the node's communication daemon
    kAttach,            ///< attach + parse image of each local process
    kInstall,           ///< install a probe (fn/where/snippet/active)
    kRemoveFunction,    ///< remove all probes on a function
    kActivateFunction,  ///< (de)activate all probes on a function
    kSuspend,
    kResume,
    kSetFlag,           ///< poke a named memory word in each process
    kExecute,           ///< one-shot snippet execution ("inferior RPC"):
                        ///< run the snippet once in each target process,
                        ///< without installing anything
  };

  Kind kind = Kind::kSuspend;
  std::vector<int> pids;  ///< job pids local to the daemon's node

  image::FunctionId fn = image::kInvalidFunction;
  image::ProbeWhere where = image::ProbeWhere::kEntry;
  image::SnippetPtr snippet;
  bool active = true;

  std::string flag;
  std::int64_t value = 0;

  /// Retries of one logical request carry the same nonzero id, and the
  /// daemon's dedup table re-acks without re-executing (exactly-once
  /// execution under at-least-once delivery).  0 = no dedup.
  std::uint64_t request_id = 0;

  std::shared_ptr<AckState> ack;  ///< null for fire-and-forget requests
  int ack_slot = 0;               ///< this daemon's slot in `ack`
  int reply_node = 0;             ///< where the ack message goes
};

/// Estimated wire size of a request message (affects transfer time).
std::int64_t request_bytes(const Request& request);

class CommDaemon {
 public:
  CommDaemon(machine::Cluster& cluster, proc::ParallelJob& job, int node);
  CommDaemon(const CommDaemon&) = delete;
  CommDaemon& operator=(const CommDaemon&) = delete;

  int node() const { return node_; }
  sim::Engine& engine() { return engine_; }
  sim::Mailbox<Request>& inbox() { return inbox_; }

  /// Spawn the request-processing loop (an engine daemon process).  Started
  /// from a simulated thread on another node (the tool forking daemons
  /// mid-run), pass it as `origin`: the loop then begins after one
  /// zero-byte fork message from the origin node.  Requests arriving
  /// before the loop is up simply wait in the inbox.
  void start(proc::SimThread* origin = nullptr);

  std::uint64_t requests_handled() const { return requests_handled_; }

  /// Cap on the dedup table (kDedupCapacity by default).  A long-lived
  /// service issues requests forever, so completed entries are evicted
  /// oldest-id-first once the table fills -- request ids are allocated
  /// monotonically, so the smallest id is always the oldest entry, and
  /// the eviction order is identical on every run.  An evicted id that is
  /// replayed later is re-executed (and re-acked) as a fresh request; the
  /// capacity only needs to cover the retry horizon of in-flight requests,
  /// not the daemon's lifetime.  Tests shrink this to force evictions.
  void set_dedup_capacity(std::size_t capacity) { dedup_capacity_ = capacity; }
  std::size_t dedup_capacity() const { return dedup_capacity_; }
  std::size_t dedup_size() const { return completed_.size(); }

  static constexpr std::size_t kDedupCapacity = 4096;

 private:
  sim::Coro<void> loop();
  /// Run the request against every local pid; returns how many targets
  /// failed (e.g. exited before dispatch).  `degrade` stretches every
  /// per-target cost (degrade-daemon gray-failure action; 1.0 normally).
  sim::Coro<int> execute(const Request& request, double degrade);
  void send_ack(const Request& request, int failures);

  machine::Cluster& cluster_;
  proc::ParallelJob& job_;
  int node_;
  sim::Engine& engine_;
  sim::Mailbox<Request> inbox_;
  /// Dedup table: request id -> failure count of the
  /// completed execution, so a retried request is re-acked, not re-run.
  /// Bounded by dedup_capacity_ (oldest ids evicted first).
  std::map<std::uint64_t, int> completed_;
  std::size_t dedup_capacity_ = kDedupCapacity;
  std::uint64_t requests_handled_ = 0;
  bool started_ = false;
};

class SuperDaemon {
 public:
  SuperDaemon(machine::Cluster& cluster, int node);
  SuperDaemon(const SuperDaemon&) = delete;
  SuperDaemon& operator=(const SuperDaemon&) = delete;

  int node() const { return node_; }
  sim::Engine& engine() { return engine_; }
  /// Takes Request::Kind::kConnect requests.
  sim::Mailbox<Request>& inbox() { return inbox_; }
  /// See CommDaemon::start for the `origin` contract.
  void start(proc::SimThread* origin = nullptr);

  std::uint64_t connections_served() const { return connections_; }

 private:
  sim::Coro<void> loop();

  machine::Cluster& cluster_;
  int node_;
  sim::Engine& engine_;
  sim::Mailbox<Request> inbox_;
  std::uint64_t connections_ = 0;
  bool started_ = false;
};

}  // namespace dyntrace::dpcl
