#include "replay/app.hpp"

#include <map>
#include <utility>

#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::replay {

namespace {

std::shared_ptr<const image::SymbolTable> build_symbols(const ReplayTrace& trace) {
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main", "replay");
  symbols->add("MPI_Init", "libmpi");
  symbols->add("MPI_Finalize", "libmpi");
  for (const std::string& fn : trace.call_functions) symbols->add(fn, "replay");
  return symbols;
}

/// Per rank, the FunctionId of each event's `call` function
/// (kInvalidFunction for MPI verbs), resolved when the spec is built.
using CallIds = std::vector<std::vector<image::FunctionId>>;

CallIds resolve_calls(const ReplayTrace& trace, const asci::AppSpec& spec) {
  std::map<std::string, image::FunctionId, std::less<>> ids;
  for (const std::string& fn : trace.call_functions) ids.emplace(fn, spec.fid(fn));
  CallIds out(trace.events.size());
  for (std::size_t r = 0; r < trace.events.size(); ++r) {
    out[r].reserve(trace.events[r].size());
    for (const ReplayEvent& ev : trace.events[r]) {
      out[r].push_back(ev.verb == Verb::kCall ? ids.at(ev.fn) : image::kInvalidFunction);
    }
  }
  return out;
}

sim::Coro<void> replay_rank(const ReplayTrace& trace, const CallIds& call_ids,
                            asci::AppContext& ctx, proc::SimThread& thread) {
  mpi::Rank* mpi = ctx.mpi();
  DT_ASSERT(mpi != nullptr, "replay bodies require the MPI runtime");
  // The trace pins the world size: Launch enforces min_procs, but max_procs
  // bounds only the paper sweeps.
  DT_EXPECT(mpi->size() == trace.ranks, trace.app_name, ": the trace records ", trace.ranks,
            " rank(s) and cannot be replayed on ", mpi->size());
  const auto rank = static_cast<std::size_t>(ctx.rank());
  const auto& events = trace.events[rank];
  const auto& fns = call_ids[rank];
  sim::TimeNs cursor = 0;
  std::map<std::string, mpi::Rank::Request> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ReplayEvent& ev = events[i];
    // Recorded idle/compute between the cursor and this event's timestamp.
    if (ev.at > cursor) {
      co_await thread.compute(ev.at - cursor);
      cursor = ev.at;
    }
    switch (ev.verb) {
      case Verb::kCall:
        if (ev.count > 1) {
          co_await ctx.leaf_repeat(thread, fns[i], ev.count, ev.work);
        } else {
          co_await ctx.leaf(thread, fns[i], ev.work);
        }
        cursor += ev.count * ev.work;
        break;
      case Verb::kSync:
        co_await ctx.safe_point(thread);
        break;
      case Verb::kSend:
        co_await mpi->send(thread, ev.peer, ev.tag, ev.bytes);
        break;
      case Verb::kRecv:
        co_await mpi->recv(thread, ev.peer, ev.tag, nullptr);
        break;
      case Verb::kIsend: {
        mpi::Rank::Request request;
        co_await mpi->isend(thread, ev.peer, ev.tag, ev.bytes, &request);
        open.emplace(ev.reqs.front(), std::move(request));
        break;
      }
      case Verb::kIrecv: {
        mpi::Rank::Request request;
        mpi->irecv(ev.peer, ev.tag, &request);
        open.emplace(ev.reqs.front(), std::move(request));
        break;
      }
      case Verb::kWait: {
        const auto it = open.find(ev.reqs.front());
        co_await mpi->wait(thread, it->second, nullptr);
        open.erase(it);
        break;
      }
      case Verb::kWaitall: {
        std::vector<mpi::Rank::Request> requests;
        requests.reserve(ev.reqs.size());
        for (const std::string& name : ev.reqs) {
          const auto it = open.find(name);
          requests.push_back(std::move(it->second));
          open.erase(it);
        }
        co_await mpi->waitall(thread, requests);
        break;
      }
      case Verb::kSendrecv:
        co_await mpi->sendrecv(thread, ev.peer, ev.tag, ev.bytes, ev.src, ev.tag,
                               nullptr);
        break;
      case Verb::kBarrier:
        co_await mpi->barrier(thread);
        break;
      case Verb::kBcast:
        co_await mpi->bcast(thread, ev.peer, ev.bytes);
        break;
      case Verb::kReduce:
        co_await mpi->reduce(thread, ev.peer, ev.bytes);
        break;
      case Verb::kAllreduce:
        co_await mpi->allreduce(thread, ev.bytes);
        break;
      case Verb::kGather:
        co_await mpi->gather(thread, ev.peer, ev.bytes);
        break;
      case Verb::kScatter:
        co_await mpi->scatter(thread, ev.peer, ev.bytes);
        break;
      case Verb::kAlltoall:
        co_await mpi->alltoall(thread, ev.bytes);
        break;
    }
    if (ev.verb != Verb::kCall) cursor += ev.dur;
  }
}

}  // namespace

ReplayApp::ReplayApp(ReplayTrace trace)
    : trace_(std::make_shared<const ReplayTrace>(std::move(trace))) {
  std::size_t total_events = 0;
  for (const auto& stream : trace_->events) total_events += stream.size();
  spec_.name = trace_->app_name;
  spec_.language = "trace";
  spec_.description = str::format("replayed MPI trace (%d ranks, %zu events)",
                                  trace_->ranks, total_events);
  spec_.model = asci::AppSpec::Model::kMpi;
  spec_.scaling = asci::AppSpec::Scaling::kWeak;
  spec_.min_procs = trace_->ranks;
  spec_.max_procs = trace_->ranks;
  spec_.symbols = build_symbols(*trace_);
  spec_.subset = trace_->subset;
  spec_.dynamic_list = trace_->subset;
  spec_.body = [trace = trace_,
                call_ids = std::make_shared<const CallIds>(resolve_calls(*trace_, spec_))](
                   asci::AppContext& ctx, proc::SimThread& thread) -> sim::Coro<void> {
    return replay_rank(*trace, *call_ids, ctx, thread);
  };
}

std::shared_ptr<ReplayApp> load_app(const std::string& path, ParseOptions options) {
  return std::make_shared<ReplayApp>(ReplayTrace::load(path, options));
}

}  // namespace dyntrace::replay
