// The simulated MPI library.
//
// World owns one endpoint (a predicate-matched message queue) per rank and
// implements point-to-point transfer timing over the cluster model.  Rank
// gives each process its MPI API: p2p, and collectives built from p2p with
// the usual tree algorithms (dissemination barrier, binomial
// broadcast/reduce), so collective latency scales with log2(P) as on real
// switches.
//
// Interposition: an MpiInterpose installed on a Rank sees every call begin/
// end with full call information -- this is the "MPI wrapper interface"
// Vampirtrace uses to collect message events (paper §3.1).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/cluster.hpp"
#include "mpi/message.hpp"
#include "proc/process.hpp"
#include "sim/mailbox.hpp"

namespace dyntrace::mpi {

class Rank;

/// Details of one MPI call, passed to interposers.
struct CallInfo {
  Op op = Op::kSend;
  int peer = kAnySource;     ///< dst/src/root where meaningful
  int tag = kAnyTag;
  std::int64_t bytes = 0;
};

/// PMPI-style wrapper hooks (implemented by the VT library).
class MpiInterpose {
 public:
  virtual ~MpiInterpose() = default;
  virtual sim::Coro<void> on_begin(proc::SimThread& thread, const CallInfo& call) = 0;
  virtual sim::Coro<void> on_end(proc::SimThread& thread, const CallInfo& call) = 0;
};

/// Gather algorithm selector.  kBinomial is the default (root-side message
/// count scales with log2 P, like the other collectives); kLinear keeps the
/// everyone-sends-to-root shape early MPI implementations used for short
/// payloads -- and which the VT statistics path of the paper is built on.
enum class GatherAlgo : std::uint8_t { kBinomial = 0, kLinear = 1 };

class World {
 public:
  explicit World(machine::Cluster& cluster);
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  machine::Cluster& cluster() { return cluster_; }

  /// Create the MPI endpoint + API for one process.  Ranks are assigned in
  /// call order and must match the process's job pid for sanity.
  Rank& add_rank(proc::SimProcess& process);

  int size() const { return static_cast<int>(ranks_.size()); }
  Rank& rank(int r);

  /// Number of ranks that have completed MPI_Init.
  int initialized_count() const { return initialized_; }

  std::uint64_t total_messages() const { return total_messages_; }

 private:
  friend class Rank;

  machine::Cluster& cluster_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  int initialized_ = 0;
  std::uint64_t total_messages_ = 0;
};

/// Per-process MPI state and API.  All calls take the executing SimThread:
/// in mixed MPI/OpenMP codes, MPI calls are made from (single-threaded
/// regions of) any thread.
class Rank {
 public:
  Rank(World& world, proc::SimProcess& process, int rank);
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  int rank() const { return rank_; }
  int size() const { return world_.size(); }
  World& world() { return world_; }
  proc::SimProcess& process() { return process_; }

  /// Interposition (VT wrappers).  Pass nullptr to remove.
  void set_interpose(MpiInterpose* interpose) { interpose_ = interpose; }

  bool initialized() const { return initialized_; }

  // --- the MPI API ----------------------------------------------------------

  /// MPI_Init.  The paper's central constraint: instrumentation cannot be
  /// safely inserted until *all* processes have completed this call.
  sim::Coro<void> init(proc::SimThread& thread);
  sim::Coro<void> finalize(proc::SimThread& thread);

  sim::Coro<void> send(proc::SimThread& thread, int dst, int tag, std::int64_t bytes);
  sim::Coro<void> recv(proc::SimThread& thread, int src, int tag, RecvInfo* info = nullptr);

  /// Timed receive (the control plane's overlay): recv() that resolves
  /// false if no matching message arrived within `timeout` virtual
  /// nanoseconds.  Interposed like recv(); an expired call ends with peer
  /// kAnySource, i.e. with no message received.
  sim::Coro<bool> recv_for(proc::SimThread& thread, int src, int tag, sim::TimeNs timeout);

  // --- non-blocking point-to-point -----------------------------------------
  //
  // MPI_Isend / MPI_Irecv / MPI_Wait.  A Request is move-only and must be
  // waited on exactly once; destroying an un-waited request is an error
  // (like leaking an MPI_Request).

  class Request {
   public:
    Request() = default;
    Request(Request&& other) noexcept;
    Request& operator=(Request&& other) noexcept;
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;
    ~Request();

    bool valid() const { return state_ != nullptr; }
    /// True once the operation finished (MPI_Test without the free).
    bool test() const;

   private:
    friend class Rank;
    struct State;
    explicit Request(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  /// Start a non-blocking send; the payload is buffered eagerly (the send
  /// completes locally once injected).
  sim::Coro<void> isend(proc::SimThread& thread, int dst, int tag, std::int64_t bytes,
                        Request* request);
  /// Post a non-blocking receive; matching follows MPI's posted-receive
  /// semantics (a message arriving later completes it directly).
  void irecv(int src, int tag, Request* request);
  /// Block until the request completes; fills `info` for receives.
  sim::Coro<void> wait(proc::SimThread& thread, Request& request, RecvInfo* info = nullptr);
  /// Wait on all requests, in index order.
  sim::Coro<void> waitall(proc::SimThread& thread, std::vector<Request>& requests);

  /// True if a matching message is queued (MPI_Iprobe).
  bool iprobe(int src, int tag) const;

  sim::Coro<void> barrier(proc::SimThread& thread);
  sim::Coro<void> bcast(proc::SimThread& thread, int root, std::int64_t bytes);
  sim::Coro<void> reduce(proc::SimThread& thread, int root, std::int64_t bytes);
  sim::Coro<void> allreduce(proc::SimThread& thread, std::int64_t bytes);
  sim::Coro<void> gather(proc::SimThread& thread, int root, std::int64_t bytes_per_rank,
                         GatherAlgo algo = GatherAlgo::kBinomial);
  /// Root sends a distinct block to every rank (linear, like gather).
  sim::Coro<void> scatter(proc::SimThread& thread, int root, std::int64_t bytes_per_rank);
  sim::Coro<void> alltoall(proc::SimThread& thread, std::int64_t bytes_per_pair);

  /// Combined send+receive (MPI_Sendrecv): posts the receive, sends, then
  /// completes the receive -- deadlock-free for neighbour exchanges.
  sim::Coro<void> sendrecv(proc::SimThread& thread, int dst, int send_tag,
                           std::int64_t bytes, int src, int recv_tag,
                           RecvInfo* info = nullptr);

  /// MPI_Wtime: current virtual time in seconds.
  double wtime() const;

  // --- statistics -------------------------------------------------------------

  std::uint64_t sends() const { return sends_; }
  std::uint64_t recvs() const { return recvs_; }
  std::uint64_t collectives() const { return collective_seq_; }

 private:
  sim::Coro<void> irecv_task(std::shared_ptr<Request::State> state, int src, int tag);

  // Raw (un-interposed, un-traced) transfer primitives used by both the
  // public API and the collective algorithms.
  sim::Coro<void> send_raw(proc::SimThread& thread, int dst, int tag, std::int64_t bytes);
  sim::Coro<void> recv_raw(proc::SimThread& thread, int src, int tag, RecvInfo* info);

  sim::Coro<void> barrier_raw(proc::SimThread& thread, std::uint32_t op_index);
  sim::Coro<void> bcast_raw(proc::SimThread& thread, int root, std::int64_t bytes,
                            std::uint32_t op_index);
  sim::Coro<void> reduce_raw(proc::SimThread& thread, int root, std::int64_t bytes,
                             std::uint32_t op_index);
  sim::Coro<void> gather_raw(proc::SimThread& thread, int root, std::int64_t bytes_per_rank,
                             std::uint32_t op_index, GatherAlgo algo);

  sim::Coro<void> begin_call(proc::SimThread& thread, const CallInfo& call);
  sim::Coro<void> end_call(proc::SimThread& thread, const CallInfo& call);

  World& world_;
  proc::SimProcess& process_;
  int rank_;
  bool initialized_ = false;
  sim::MatchQueue<Envelope> incoming_;
  MpiInterpose* interpose_ = nullptr;
  std::uint32_t collective_seq_ = 0;
  std::uint64_t send_seq_ = 0;  ///< per-rank envelope ordinal
  std::uint64_t sends_ = 0;
  std::uint64_t recvs_ = 0;
};

}  // namespace dyntrace::mpi
