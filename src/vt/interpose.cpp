#include "vt/interpose.hpp"

namespace dyntrace::vt {

sim::Coro<void> VtMpiInterpose::on_begin(proc::SimThread& thread, const mpi::CallInfo& call) {
  co_await vt_.record(thread, EventKind::kMpiBegin, static_cast<std::int32_t>(call.op), 0);
  if (call.op == mpi::Op::kSend) {
    co_await vt_.record(thread, EventKind::kMsgSend, call.peer, call.bytes);
  }
}

sim::Coro<void> VtMpiInterpose::on_end(proc::SimThread& thread, const mpi::CallInfo& call) {
  // A timed receive that expired ends with no peer: no message to record.
  if (call.op == mpi::Op::kRecv && call.peer != mpi::kAnySource) {
    co_await vt_.record(thread, EventKind::kMsgRecv, call.peer, call.bytes);
  }
  co_await vt_.record(thread, EventKind::kMpiEnd, static_cast<std::int32_t>(call.op),
                      call.bytes);
}

sim::Coro<void> VtOmpListener::on_parallel_begin(proc::SimThread& master, int region_id,
                                                 int num_threads) {
  co_await vt_.record(master, EventKind::kParallelBegin, region_id, num_threads);
}

sim::Coro<void> VtOmpListener::on_parallel_end(proc::SimThread& master, int region_id) {
  co_await vt_.record(master, EventKind::kParallelEnd, region_id, 0);
}

sim::Coro<void> VtOmpListener::on_worker_begin(proc::SimThread& worker, int region_id) {
  co_await vt_.record(worker, EventKind::kWorkerBegin, region_id, 0);
}

sim::Coro<void> VtOmpListener::on_worker_end(proc::SimThread& worker, int region_id) {
  co_await vt_.record(worker, EventKind::kWorkerEnd, region_id, 0);
}

}  // namespace dyntrace::vt
