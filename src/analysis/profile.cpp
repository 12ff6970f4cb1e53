#include "analysis/profile.hpp"

#include <algorithm>
#include <map>

#include "mpi/message.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace dyntrace::analysis {

namespace {

void sort_by_inclusive(std::vector<FunctionProfile>& functions) {
  std::sort(functions.begin(), functions.end(),
            [](const FunctionProfile& a, const FunctionProfile& b) {
              if (a.inclusive != b.inclusive) return a.inclusive > b.inclusive;
              return a.fn < b.fn;
            });
}

}  // namespace

ProcessReplay::ProcessReplay(std::int32_t pid) { profile_.pid = pid; }

ProcessReplay::ThreadState& ProcessReplay::thread(std::int32_t tid) {
  if (cached_thread_ == nullptr || tid != cached_tid_) {
    cached_thread_ = &threads_[tid];
    cached_tid_ = tid;
  }
  return *cached_thread_;
}

void ProcessReplay::add(const vt::Event& e) {
  if (profile_.events == 0) profile_.first_event = e.time;
  profile_.last_event = e.time;
  ++profile_.events;
  switch (e.kind) {
    case vt::EventKind::kEnter: {
      const auto [it, inserted] = slot_of_fn_.try_emplace(
          e.code, static_cast<std::uint32_t>(profile_.functions.size()));
      if (inserted) {
        FunctionProfile fp;
        fp.fn = static_cast<image::FunctionId>(e.code);
        profile_.functions.push_back(fp);
      }
      ++profile_.functions[it->second].calls;
      thread(e.tid).stack.push_back(StackEntry{e.code, it->second, e.time});
      break;
    }
    case vt::EventKind::kLeave: {
      auto& stack = thread(e.tid).stack;
      if (stack.empty() || stack.back().fn != e.code) {
        ++profile_.unmatched_leaves;
        break;
      }
      const StackEntry entry = stack.back();
      stack.pop_back();
      const sim::TimeNs inclusive = e.time - entry.entered;
      FunctionProfile& fp = profile_.functions[entry.slot];
      fp.inclusive += inclusive;
      fp.exclusive += inclusive - entry.child_time;
      if (!stack.empty()) stack.back().child_time += inclusive;
      break;
    }
    case vt::EventKind::kMsgSend:
      ++profile_.messages.sends;
      profile_.messages.bytes_sent += e.aux;
      break;
    case vt::EventKind::kMsgRecv:
      ++profile_.messages.recvs;
      profile_.messages.bytes_received += e.aux;
      break;
    case vt::EventKind::kMpiBegin: {
      ThreadState& t = thread(e.tid);
      t.in_mpi = true;
      t.mpi_begin = e.time;
      break;
    }
    case vt::EventKind::kMpiEnd: {
      ++profile_.messages.mpi_calls;
      ThreadState& t = thread(e.tid);
      if (t.in_mpi) {
        profile_.messages.mpi_time += e.time - t.mpi_begin;
        t.in_mpi = false;
      }
      break;
    }
    default:
      break;
  }
}

ProcessProfile ProcessReplay::finish() {
  sort_by_inclusive(profile_.functions);
  return std::move(profile_);
}

TraceAnalyzer::TraceAnalyzer(const vt::TraceStore& store) {
  // Replay each process's shard as a time-ordered stream; the trace is
  // never materialized as one vector.
  for (const std::int32_t pid : store.pids()) {
    ProcessReplay replay(pid);
    auto cursor = store.process_cursor(pid);
    vt::Event e;
    while (cursor->next(e)) replay.add(e);
    processes_.push_back(replay.finish());
  }
}

const ProcessProfile* TraceAnalyzer::process(std::int32_t pid) const {
  for (const auto& p : processes_) {
    if (p.pid == pid) return &p;
  }
  return nullptr;
}

ProcessProfile TraceAnalyzer::aggregate() const {
  ProcessProfile total;
  total.pid = -1;
  std::map<image::FunctionId, FunctionProfile> merged;
  bool first = true;
  for (const auto& p : processes_) {
    total.events += p.events;
    total.unmatched_leaves += p.unmatched_leaves;
    total.messages.sends += p.messages.sends;
    total.messages.recvs += p.messages.recvs;
    total.messages.bytes_sent += p.messages.bytes_sent;
    total.messages.bytes_received += p.messages.bytes_received;
    total.messages.mpi_calls += p.messages.mpi_calls;
    total.messages.mpi_time += p.messages.mpi_time;
    if (first || p.first_event < total.first_event) total.first_event = p.first_event;
    if (first || p.last_event > total.last_event) total.last_event = p.last_event;
    first = false;
    for (const auto& fp : p.functions) {
      auto& m = merged[fp.fn];
      m.fn = fp.fn;
      m.calls += fp.calls;
      m.inclusive += fp.inclusive;
      m.exclusive += fp.exclusive;
    }
  }
  for (const auto& [fn, fp] : merged) total.functions.push_back(fp);
  sort_by_inclusive(total.functions);
  return total;
}

std::string TraceAnalyzer::top_functions_table(const image::SymbolTable* symbols,
                                               std::size_t n) const {
  return render_top_functions(aggregate(), symbols, n);
}

std::string render_top_functions(const ProcessProfile& total,
                                 const image::SymbolTable* symbols, std::size_t n) {
  TextTable table({"function", "calls", "inclusive (s)", "exclusive (s)"});
  for (std::size_t i = 0; i < total.functions.size() && i < n; ++i) {
    const auto& fp = total.functions[i];
    std::string name = str::format("fn%u", fp.fn);
    if (symbols != nullptr && fp.fn < symbols->size()) name = symbols->at(fp.fn).name;
    table.add_row({name, str::format("%llu", (unsigned long long)fp.calls),
                   TextTable::num(sim::to_seconds(fp.inclusive), 3),
                   TextTable::num(sim::to_seconds(fp.exclusive), 3)});
  }
  return table.render();
}

}  // namespace dyntrace::analysis
