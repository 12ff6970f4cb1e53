#include "mpi/world.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <vector>

#include "fault/injector.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::mpi {

World::World(machine::Cluster& cluster) : cluster_(cluster) {}
World::~World() = default;

Rank& World::add_rank(proc::SimProcess& process) {
  const int r = static_cast<int>(ranks_.size());
  ranks_.push_back(std::make_unique<Rank>(*this, process, r));
  return *ranks_.back();
}

Rank& World::rank(int r) {
  DT_ASSERT(r >= 0 && r < size(), "rank ", r, " out of range (size ", size(), ")");
  return *ranks_[static_cast<std::size_t>(r)];
}

// ---------------------------------------------------------------------------
// Rank
// ---------------------------------------------------------------------------

namespace {

/// MPI_Init's modelled software cost (library setup, wire-up with the job
/// manager).  Dwarfed by the barrier it performs.
constexpr sim::TimeNs kInitSoftwareCost = sim::milliseconds(35);
constexpr sim::TimeNs kFinalizeSoftwareCost = sim::milliseconds(8);

int ceil_log2(int n) {
  DT_ASSERT(n >= 1);
  return n <= 1 ? 0 : std::bit_width(static_cast<unsigned>(n - 1));
}

/// Message fate of one MPI-level send under the cluster's fault injector:
/// how many copies to deliver (0 = dropped) and the scaled wire delay.
/// Overlay traffic (tags in the overlay band) is its own channel so fault
/// plans can target the control plane without touching app messages.
struct WireFate {
  int copies;
  sim::TimeNs delay;
};

WireFate apply_fate(machine::Cluster& cluster, int src_rank, int dst_rank, int src_node,
                    int tag, sim::TimeNs delay, sim::TimeNs now) {
  fault::FaultInjector& injector = cluster.fault_injector();
  const fault::Channel channel =
      tag >= fault::kOverlayTagBase ? fault::Channel::kOverlay : fault::Channel::kApp;
  const fault::MessageFate fate = injector.message_fate(channel, src_rank, dst_rank, now);
  const double factor = fate.delay_factor * injector.stall_factor(src_node, now);
  return WireFate{fate.copies(), fault::scale_delay(delay, factor)};
}

}  // namespace

Rank::Rank(World& world, proc::SimProcess& process, int rank)
    : world_(world), process_(process), rank_(rank), incoming_(process.engine()) {
  // Snippets dynamically inserted by instrumenters may call MPI_Barrier
  // (the Figure-6 initialization snippet does); expose it in the process's
  // library registry.
  process_.registry().register_function(
      image::LibEntry::kMpiBarrier,
      [this](proc::SimThread& thread, proc::LibraryRegistry::Args) {
        return barrier_raw(thread, collective_seq_++);
      });
}

sim::Coro<void> Rank::begin_call(proc::SimThread& thread, const CallInfo& call) {
  if (interpose_ != nullptr) co_await interpose_->on_begin(thread, call);
}

sim::Coro<void> Rank::end_call(proc::SimThread& thread, const CallInfo& call) {
  if (interpose_ != nullptr) co_await interpose_->on_end(thread, call);
}

sim::Coro<void> Rank::init(proc::SimThread& thread) {
  DT_EXPECT(!initialized_, "rank ", rank_, ": MPI_Init called twice");
  co_await thread.compute(kInitSoftwareCost);
  // All processes synchronise inside MPI_Init (wire-up with every peer).
  co_await barrier_raw(thread, collective_seq_++);
  initialized_ = true;
  ++world_.initialized_;
  // Note: no interpose hooks here.  The VT library initialises itself
  // *inside* MPI_Init via the wrapper interface, so VT events for the init
  // call itself are not collectable -- the exact constraint of paper §3.4.
}

sim::Coro<void> Rank::finalize(proc::SimThread& thread) {
  DT_EXPECT(initialized_, "rank ", rank_, ": MPI_Finalize before MPI_Init");
  co_await barrier_raw(thread, collective_seq_++);
  co_await thread.compute(kFinalizeSoftwareCost);
  initialized_ = false;
  --world_.initialized_;
}

sim::Coro<void> Rank::send_raw(proc::SimThread& thread, int dst, int tag, std::int64_t bytes) {
  DT_ASSERT(dst >= 0 && dst < size(), "send to invalid rank ", dst);
  machine::Cluster& cluster = world_.cluster();
  Rank& target = world_.rank(dst);

  Envelope env;
  env.src = rank_;
  env.dst = dst;
  env.tag = tag;
  env.bytes = bytes;
  env.seq = send_seq_++;
  ++world_.total_messages_;

  // Sender-side cost: per-message software overhead plus injection of the
  // payload into the fabric.
  const machine::MachineSpec& spec = cluster.spec();
  const sim::TimeNs inject =
      spec.per_message_software +
      sim::microseconds(static_cast<double>(bytes) /
                        (process_.node() == target.process_.node()
                             ? spec.intra_bandwidth_bytes_per_us
                             : spec.bandwidth_bytes_per_us));
  co_await thread.compute(inject);

  // In-flight delay to the destination.
  env.sent_at = process_.engine().now();
  const sim::TimeNs delay =
      cluster.message_delay(process_.node(), target.process_.node(), bytes, env.sent_at);
  const WireFate fate =
      apply_fate(cluster, rank_, dst, process_.node(), tag, delay, env.sent_at);
  for (int c = 0; c < fate.copies; ++c) {
    target.process_.engine().schedule_at(env.sent_at + fate.delay,
                                         [&target, env] { target.incoming_.put(env); });
  }
  ++sends_;
}

sim::Coro<void> Rank::recv_raw(proc::SimThread& thread, int src, int tag, RecvInfo* info) {
  const Envelope env = co_await incoming_.recv([src, tag](const Envelope& e) {
    return (src == kAnySource || e.src == src) && (tag == kAnyTag || e.tag == tag);
  });
  // A suspended process must not observe message completion.
  co_await thread.gate();
  // Receiver-side copy-out.
  co_await thread.compute(world_.cluster().spec().per_message_software / 2);
  if (info != nullptr) *info = RecvInfo{env.src, env.tag, env.bytes};
  ++recvs_;
}

sim::Coro<bool> Rank::recv_for(proc::SimThread& thread, int src, int tag,
                               sim::TimeNs timeout) {
  co_await begin_call(thread, CallInfo{Op::kRecv, src, tag, 0});
  auto env = co_await incoming_.recv_for(
      [src, tag](const Envelope& e) {
        return (src == kAnySource || e.src == src) && (tag == kAnyTag || e.tag == tag);
      },
      timeout);
  if (!env) {
    co_await end_call(thread, CallInfo{Op::kRecv, kAnySource, tag, 0});
    co_return false;
  }
  co_await thread.gate();
  co_await thread.compute(world_.cluster().spec().per_message_software / 2);
  ++recvs_;
  co_await end_call(thread, CallInfo{Op::kRecv, env->src, env->tag, env->bytes});
  co_return true;
}

sim::Coro<void> Rank::send(proc::SimThread& thread, int dst, int tag, std::int64_t bytes) {
  const CallInfo call{Op::kSend, dst, tag, bytes};
  co_await begin_call(thread, call);
  co_await send_raw(thread, dst, tag, bytes);
  co_await end_call(thread, call);
}

sim::Coro<void> Rank::recv(proc::SimThread& thread, int src, int tag, RecvInfo* info) {
  const CallInfo call{Op::kRecv, src, tag, 0};
  co_await begin_call(thread, call);
  RecvInfo local{};
  co_await recv_raw(thread, src, tag, &local);
  if (info != nullptr) *info = local;
  const CallInfo done{Op::kRecv, local.src, local.tag, local.bytes};
  co_await end_call(thread, done);
}

// ---------------------------------------------------------------------------
// Non-blocking point-to-point
// ---------------------------------------------------------------------------

struct Rank::Request::State {
  State(sim::Engine& engine, bool recv) : is_recv(recv), completion(engine) {}
  bool is_recv;
  bool done = false;
  bool waited = false;
  RecvInfo info;
  sim::Trigger completion;
};

Rank::Request::Request(Request&& other) noexcept : state_(std::move(other.state_)) {}

Rank::Request& Rank::Request::operator=(Request&& other) noexcept {
  state_ = std::move(other.state_);
  return *this;
}

Rank::Request::~Request() {
  if (state_ && !state_->waited) {
    std::fprintf(stderr, "mpi: request destroyed without MPI_Wait (%s, %s)\n",
                 state_->is_recv ? "irecv" : "isend", state_->done ? "completed" : "pending");
  }
}

bool Rank::Request::test() const { return state_ != nullptr && state_->done; }

sim::Coro<void> Rank::isend(proc::SimThread& thread, int dst, int tag, std::int64_t bytes,
                            Request* request) {
  DT_ASSERT(request != nullptr);
  DT_ASSERT(dst >= 0 && dst < size(), "isend to invalid rank ", dst);
  const CallInfo call{Op::kIsend, dst, tag, bytes};
  co_await begin_call(thread, call);

  machine::Cluster& cluster = world_.cluster();
  sim::Engine& engine = process_.engine();
  Rank& target = world_.rank(dst);
  const machine::MachineSpec& spec = cluster.spec();

  // Posting cost only; the injection proceeds in the background (DMA).
  co_await thread.compute(spec.per_message_software / 4);

  Envelope env;
  env.src = rank_;
  env.dst = dst;
  env.tag = tag;
  env.bytes = bytes;
  env.seq = send_seq_++;
  env.sent_at = engine.now();
  ++world_.total_messages_;

  const sim::TimeNs inject =
      spec.per_message_software +
      sim::microseconds(static_cast<double>(bytes) /
                        (process_.node() == target.process_.node()
                             ? spec.intra_bandwidth_bytes_per_us
                             : spec.bandwidth_bytes_per_us));
  auto state = std::make_shared<Request::State>(engine, /*recv=*/false);
  // Locally complete once the payload has left the send buffer...
  engine.schedule_after(inject, [state] {
    state->done = true;
    state->completion.fire();
  });
  // ...and deliver after the wire delay.
  const sim::TimeNs wire =
      cluster.message_delay(process_.node(), target.process_.node(), bytes, env.sent_at);
  const WireFate fate =
      apply_fate(cluster, rank_, dst, process_.node(), tag, wire, env.sent_at);
  for (int c = 0; c < fate.copies; ++c) {
    target.process_.engine().schedule_at(env.sent_at + inject + fate.delay,
                                         [&target, env] { target.incoming_.put(env); });
  }
  ++sends_;

  *request = Request(std::move(state));
  co_await end_call(thread, call);
}

sim::Coro<void> Rank::irecv_task(std::shared_ptr<Request::State> state, int src, int tag) {
  const Envelope env = co_await incoming_.recv([src, tag](const Envelope& e) {
    return (src == kAnySource || e.src == src) && (tag == kAnyTag || e.tag == tag);
  });
  state->info = RecvInfo{env.src, env.tag, env.bytes};
  state->done = true;
  state->completion.fire();
  ++recvs_;
}

void Rank::irecv(int src, int tag, Request* request) {
  DT_ASSERT(request != nullptr);
  auto state = std::make_shared<Request::State>(process_.engine(), /*recv=*/true);
  process_.engine().spawn(
      irecv_task(state, src, tag),
      str::format("mpi.rank%d.irecv", rank_),
      sim::Engine::SpawnOptions{.daemon = true});
  *request = Request(std::move(state));
}

sim::Coro<void> Rank::wait(proc::SimThread& thread, Request& request, RecvInfo* info) {
  DT_EXPECT(request.valid(), "MPI_Wait on an invalid request");
  const CallInfo call{Op::kWait, kAnySource, kAnyTag, 0};
  co_await begin_call(thread, call);
  co_await request.state_->completion.wait();
  co_await thread.gate();
  // Receiver-side copy-out happens at completion time for receives.
  if (request.state_->is_recv) {
    co_await thread.compute(world_.cluster().spec().per_message_software / 2);
  }
  if (info != nullptr) *info = request.state_->info;
  request.state_->waited = true;
  co_await end_call(thread, call);
}

sim::Coro<void> Rank::waitall(proc::SimThread& thread, std::vector<Request>& requests) {
  for (auto& request : requests) {
    co_await wait(thread, request, nullptr);
  }
}

bool Rank::iprobe(int src, int tag) const {
  return incoming_.probe([src, tag](const Envelope& e) {
    return (src == kAnySource || e.src == src) && (tag == kAnyTag || e.tag == tag);
  });
}

// Dissemination barrier: ceil(log2 P) rounds; round k sends to
// (rank + 2^k) mod P and receives from (rank - 2^k) mod P.
sim::Coro<void> Rank::barrier_raw(proc::SimThread& thread, std::uint32_t op_index) {
  const int p = size();
  if (p <= 1) co_return;
  const int rounds = ceil_log2(p);
  for (int k = 0; k < rounds; ++k) {
    const int stride = 1 << k;
    const int to = (rank_ + stride) % p;
    const int from = (rank_ - stride % p + p) % p;
    const int tag = collective_tag(op_index, k);
    co_await send_raw(thread, to, tag, 0);
    co_await recv_raw(thread, from, tag, nullptr);
  }
}

sim::Coro<void> Rank::barrier(proc::SimThread& thread) {
  const CallInfo call{Op::kBarrier, kAnySource, kAnyTag, 0};
  co_await begin_call(thread, call);
  co_await barrier_raw(thread, collective_seq_++);
  co_await end_call(thread, call);
}

// Binomial-tree broadcast rooted at `root`.
sim::Coro<void> Rank::bcast_raw(proc::SimThread& thread, int root, std::int64_t bytes,
                                std::uint32_t op_index) {
  const int p = size();
  if (p <= 1) co_return;
  const int vrank = (rank_ - root + p) % p;  // root becomes virtual rank 0
  const int rounds = ceil_log2(p);
  const int tag = collective_tag(op_index, 0);

  // Receive once from the parent (non-root only), then forward down.
  if (vrank != 0) {
    co_await recv_raw(thread, kAnySource, tag, nullptr);
  }
  // After receiving in round r (the highest set bit of vrank), forward in
  // all later rounds.
  int first_round = 0;
  if (vrank != 0) {
    first_round = std::bit_width(static_cast<unsigned>(vrank));  // rounds already passed
  }
  for (int k = first_round; k < rounds; ++k) {
    const int vchild = vrank + (1 << k);
    if (vchild < p) {
      const int child = (vchild + root) % p;
      co_await send_raw(thread, child, tag, bytes);
    }
  }
}

sim::Coro<void> Rank::bcast(proc::SimThread& thread, int root, std::int64_t bytes) {
  const CallInfo call{Op::kBcast, root, kAnyTag, bytes};
  co_await begin_call(thread, call);
  co_await bcast_raw(thread, root, bytes, collective_seq_++);
  co_await end_call(thread, call);
}

// Binomial-tree reduction to `root` (reverse of broadcast).
sim::Coro<void> Rank::reduce_raw(proc::SimThread& thread, int root, std::int64_t bytes,
                                 std::uint32_t op_index) {
  const int p = size();
  if (p <= 1) co_return;
  const int vrank = (rank_ - root + p) % p;
  const int rounds = ceil_log2(p);
  const int tag = collective_tag(op_index, 1);

  for (int k = 0; k < rounds; ++k) {
    const int bit = 1 << k;
    if ((vrank & (bit - 1)) != 0) continue;  // already sent in an earlier round
    if ((vrank & bit) != 0) {
      // Send partial result to the parent and leave.
      const int parent = ((vrank & ~bit) + root) % p;
      co_await send_raw(thread, parent, tag, bytes);
      co_return;
    }
    const int vchild = vrank | bit;
    if (vchild < p) {
      co_await recv_raw(thread, kAnySource, tag, nullptr);
      // Combine operation cost: proportional to payload.
      co_await thread.compute(sim::nanoseconds(static_cast<double>(bytes) * 0.25));
    }
  }
}

sim::Coro<void> Rank::reduce(proc::SimThread& thread, int root, std::int64_t bytes) {
  const CallInfo call{Op::kReduce, root, kAnyTag, bytes};
  co_await begin_call(thread, call);
  co_await reduce_raw(thread, root, bytes, collective_seq_++);
  co_await end_call(thread, call);
}

sim::Coro<void> Rank::allreduce(proc::SimThread& thread, std::int64_t bytes) {
  const CallInfo call{Op::kAllreduce, kAnySource, kAnyTag, bytes};
  co_await begin_call(thread, call);
  const std::uint32_t op = collective_seq_++;
  co_await reduce_raw(thread, 0, bytes, op);
  co_await bcast_raw(thread, 0, bytes, op);
  co_await end_call(thread, call);
}

// Gather to `root`.  kBinomial mirrors reduce_raw's tree, but the payload
// grows on the way up: after round k, virtual rank v holds the blocks of
// ranks [v, v + 2^k) (clipped to P), so the root receives ceil(log2 P)
// messages instead of P - 1.  kLinear is the everyone-sends-to-root shape
// early MPI implementations used for short payloads; the VT statistics
// path requests it explicitly to stay faithful to the paper's Figure 8(b).
sim::Coro<void> Rank::gather_raw(proc::SimThread& thread, int root,
                                 std::int64_t bytes_per_rank, std::uint32_t op_index,
                                 GatherAlgo algo) {
  const int p = size();
  if (p <= 1) co_return;
  const int tag = collective_tag(op_index, 2);
  if (algo == GatherAlgo::kLinear) {
    if (rank_ == root) {
      for (int i = 0; i < p - 1; ++i) {
        co_await recv_raw(thread, kAnySource, tag, nullptr);
      }
    } else {
      co_await send_raw(thread, root, tag, bytes_per_rank);
    }
    co_return;
  }
  const int vrank = (rank_ - root + p) % p;
  const int rounds = ceil_log2(p);
  for (int k = 0; k < rounds; ++k) {
    const int bit = 1 << k;
    if ((vrank & (bit - 1)) != 0) continue;  // already sent in an earlier round
    if ((vrank & bit) != 0) {
      // Ship every block accumulated so far to the parent and leave.
      const int parent = ((vrank & ~bit) + root) % p;
      const std::int64_t blocks = std::min<std::int64_t>(bit, p - vrank);
      co_await send_raw(thread, parent, tag, blocks * bytes_per_rank);
      co_return;
    }
    const int vchild = vrank | bit;
    if (vchild < p) {
      co_await recv_raw(thread, kAnySource, tag, nullptr);
    }
  }
}

sim::Coro<void> Rank::gather(proc::SimThread& thread, int root, std::int64_t bytes_per_rank,
                             GatherAlgo algo) {
  const CallInfo call{Op::kGather, root, kAnyTag, bytes_per_rank};
  co_await begin_call(thread, call);
  co_await gather_raw(thread, root, bytes_per_rank, collective_seq_++, algo);
  co_await end_call(thread, call);
}

sim::Coro<void> Rank::scatter(proc::SimThread& thread, int root,
                              std::int64_t bytes_per_rank) {
  const CallInfo call{Op::kScatter, root, kAnyTag, bytes_per_rank};
  co_await begin_call(thread, call);
  const int p = size();
  const std::uint32_t op = collective_seq_++;
  const int tag = collective_tag(op, 4);
  if (p > 1) {
    if (rank_ == root) {
      for (int dst = 0; dst < p; ++dst) {
        if (dst != root) co_await send_raw(thread, dst, tag, bytes_per_rank);
      }
    } else {
      co_await recv_raw(thread, root, tag, nullptr);
    }
  }
  co_await end_call(thread, call);
}

sim::Coro<void> Rank::sendrecv(proc::SimThread& thread, int dst, int send_tag,
                               std::int64_t bytes, int src, int recv_tag, RecvInfo* info) {
  const CallInfo call{Op::kSendrecv, dst, send_tag, bytes};
  co_await begin_call(thread, call);
  // Send is buffered (eager), so send-then-receive cannot deadlock even in
  // an unstaggered ring.
  co_await send_raw(thread, dst, send_tag, bytes);
  co_await recv_raw(thread, src, recv_tag, info);
  co_await end_call(thread, call);
}

// Pairwise-exchange all-to-all.
sim::Coro<void> Rank::alltoall(proc::SimThread& thread, std::int64_t bytes_per_pair) {
  const CallInfo call{Op::kAlltoall, kAnySource, kAnyTag, bytes_per_pair};
  co_await begin_call(thread, call);
  const int p = size();
  const std::uint32_t op = collective_seq_++;
  const int tag = collective_tag(op, 3);
  for (int step = 1; step < p; ++step) {
    const int to = (rank_ + step) % p;
    const int from = (rank_ - step % p + p) % p;
    co_await send_raw(thread, to, tag, bytes_per_pair);
    co_await recv_raw(thread, from, tag, nullptr);
  }
  co_await end_call(thread, call);
}

double Rank::wtime() const { return sim::to_seconds(process_.engine().now()); }

}  // namespace dyntrace::mpi
