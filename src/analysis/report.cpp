#include "analysis/report.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

#include "analysis/profile.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace dyntrace::analysis {

std::int64_t CommMatrix::at(int src, int dst) const {
  DT_ASSERT(src >= 0 && src < nprocs && dst >= 0 && dst < nprocs);
  return bytes[static_cast<std::size_t>(src) * nprocs + dst];
}

std::int64_t CommMatrix::total() const {
  std::int64_t sum = 0;
  for (const auto b : bytes) sum += b;
  return sum;
}

std::string CommMatrix::render() const {
  std::vector<std::string> headers{"src\\dst (KiB)"};
  for (int dst = 0; dst < nprocs; ++dst) headers.push_back(std::to_string(dst));
  TextTable table(std::move(headers));
  for (int src = 0; src < nprocs; ++src) {
    std::vector<std::string> row{std::to_string(src)};
    for (int dst = 0; dst < nprocs; ++dst) {
      row.push_back(TextTable::num(static_cast<double>(at(src, dst)) / 1024.0, 1));
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

namespace {

/// Largest pid with events, plus one (pids are dense from 0).
int process_span(const vt::TraceStore& store) {
  int nprocs = 0;
  for (const std::int32_t pid : store.pids()) nprocs = std::max(nprocs, pid + 1);
  return nprocs;
}

/// Feed every process's events to `fold` in per-process time order.  Each
/// analysis below only sums, or pairs events within one (pid, tid), so it
/// needs no global order: per-process cursors give exactly the events, in
/// exactly the relative order, that the k-way merge would, without the merge.
template <typename Fold>
void replay_processes(const vt::TraceStore& store, Fold&& fold) {
  for (const std::int32_t pid : store.pids()) {
    auto cursor = store.process_cursor(pid);
    vt::Event e;
    while (cursor->next(e)) fold(pid, e);
  }
}

/// Bytes of kMsgSend events per (src, dst).  The matrix is laid out for the
/// process range up front and re-laid only if a send names a peer past it.
class CommFold {
 public:
  explicit CommFold(int nprocs) { relayout(nprocs); }

  void add(const vt::Event& e) {
    if (e.kind != vt::EventKind::kMsgSend) return;
    DT_EXPECT(e.code < std::numeric_limits<std::int32_t>::max(), "rank ", e.pid,
              " sends to peer ", e.code, ", past any matrix");
    if (e.code >= matrix_.nprocs) relayout(e.code + 1);
    if (e.code < 0) return;
    matrix_.bytes[static_cast<std::size_t>(e.pid) * matrix_.nprocs + e.code] += e.aux;
  }

  CommMatrix finish() { return std::move(matrix_); }

 private:
  void relayout(int nprocs) {
    std::vector<std::int64_t> bytes(static_cast<std::size_t>(nprocs) * nprocs, 0);
    for (int src = 0; src < matrix_.nprocs; ++src) {
      std::copy_n(matrix_.bytes.begin() + static_cast<std::ptrdiff_t>(src) * matrix_.nprocs,
                  matrix_.nprocs,
                  bytes.begin() + static_cast<std::ptrdiff_t>(src) * nprocs);
    }
    matrix_.nprocs = nprocs;
    matrix_.bytes = std::move(bytes);
  }

  CommMatrix matrix_;
};

/// Parallel-region spans: parallel events come from the master, worker
/// events from each team member, paired per (tid, region) within a process.
class OmpFold {
 public:
  void add(std::int32_t pid, const vt::Event& e) {
    if (pid != pid_) {  // spans never pair across processes
      pid_ = pid;
      open_master_.clear();
      open_worker_.clear();
    }
    const auto key = std::make_pair(e.tid, e.code);
    switch (e.kind) {
      case vt::EventKind::kParallelBegin: {
        auto& profile = by_region_[e.code];
        profile.region_id = e.code;
        ++profile.executions;
        profile.max_team_size = std::max(profile.max_team_size, static_cast<int>(e.aux));
        open_master_[key] = e.time;
        break;
      }
      case vt::EventKind::kParallelEnd: {
        const auto it = open_master_.find(key);
        if (it != open_master_.end()) {
          by_region_[e.code].master_span += e.time - it->second;
          open_master_.erase(it);
        }
        break;
      }
      case vt::EventKind::kWorkerBegin:
        open_worker_[key] = e.time;
        break;
      case vt::EventKind::kWorkerEnd: {
        const auto it = open_worker_.find(key);
        if (it != open_worker_.end()) {
          by_region_[e.code].worker_span += e.time - it->second;
          open_worker_.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }

  /// Profiles sorted by master span descending, then region id.
  std::vector<OmpRegionProfile> finish() const {
    std::vector<OmpRegionProfile> profiles;
    for (const auto& [id, profile] : by_region_) profiles.push_back(profile);
    std::sort(profiles.begin(), profiles.end(),
              [](const OmpRegionProfile& a, const OmpRegionProfile& b) {
                if (a.master_span != b.master_span) return a.master_span > b.master_span;
                return a.region_id < b.region_id;
              });
    return profiles;
  }

 private:
  std::int32_t pid_ = -1;
  std::map<std::int32_t, OmpRegionProfile> by_region_;
  std::map<std::pair<std::int32_t, std::int32_t>, sim::TimeNs> open_master_;
  std::map<std::pair<std::int32_t, std::int32_t>, sim::TimeNs> open_worker_;
};

}  // namespace

CommMatrix communication_matrix(const vt::TraceStore& store) {
  CommFold comm(process_span(store));
  replay_processes(store, [&](std::int32_t, const vt::Event& e) { comm.add(e); });
  return comm.finish();
}

LoadBalance load_balance(const vt::TraceStore& store) { return load_balance(TraceAnalyzer(store)); }

LoadBalance load_balance(const TraceAnalyzer& analyzer) {
  LoadBalance balance;
  std::int32_t max_pid = -1;
  for (const auto& p : analyzer.processes()) max_pid = std::max(max_pid, p.pid);
  balance.busy_seconds.assign(static_cast<std::size_t>(max_pid + 1), 0.0);

  for (const auto& p : analyzer.processes()) {
    // Busy = top-level traced function time plus MPI time (functions at
    // depth 0 only, to avoid double counting nests: exclusive sums to that).
    sim::TimeNs busy = 0;
    for (const auto& fp : p.functions) busy += fp.exclusive;
    busy += p.messages.mpi_time;
    balance.busy_seconds[static_cast<std::size_t>(p.pid)] = sim::to_seconds(busy);
  }
  if (balance.busy_seconds.empty()) return balance;

  double sum = 0;
  balance.min = balance.busy_seconds.front();
  balance.max = balance.busy_seconds.front();
  for (const double b : balance.busy_seconds) {
    sum += b;
    balance.min = std::min(balance.min, b);
    balance.max = std::max(balance.max, b);
  }
  balance.mean = sum / static_cast<double>(balance.busy_seconds.size());
  balance.imbalance = balance.mean > 0 ? balance.max / balance.mean : 0.0;
  return balance;
}

std::vector<OmpRegionProfile> omp_region_profiles(const vt::TraceStore& store) {
  OmpFold omp;
  replay_processes(store, [&](std::int32_t pid, const vt::Event& e) { omp.add(pid, e); });
  return omp.finish();
}

std::string render_omp_regions(const std::vector<OmpRegionProfile>& profiles) {
  TextTable table({"region", "executions", "team", "master span (s)", "worker span (s)"});
  for (const auto& p : profiles) {
    table.add_row({std::to_string(p.region_id), std::to_string(p.executions),
                   std::to_string(p.max_team_size),
                   TextTable::num(sim::to_seconds(p.master_span), 3),
                   TextTable::num(sim::to_seconds(p.worker_span), 3)});
  }
  return table.render();
}

std::string summary_report(const vt::TraceStore& store, const image::SymbolTable* symbols,
                           std::size_t top_n) {
  // One replay of each shard feeds the profile, the matrix and the regions.
  std::vector<ProcessProfile> processes;
  CommFold comm(process_span(store));
  OmpFold omp;
  for (const std::int32_t pid : store.pids()) {
    ProcessReplay replay(pid);
    auto cursor = store.process_cursor(pid);
    vt::Event e;
    while (cursor->next(e)) {
      replay.add(e);
      comm.add(e);
      omp.add(pid, e);
    }
    processes.push_back(replay.finish());
  }
  std::ostringstream os;
  const TraceAnalyzer analyzer(std::move(processes));
  const auto total = analyzer.aggregate();
  os << "=== trace summary ===\n";
  os << "events: " << store.size() << " across " << analyzer.processes().size()
     << " process(es), span " << sim::format_duration(total.last_event - total.first_event)
     << "\n";
  os << "MPI: " << total.messages.mpi_calls << " calls, " << total.messages.sends
     << " sends / " << total.messages.recvs << " recvs, "
     << str::format("%.1f KiB", static_cast<double>(total.messages.bytes_sent) / 1024.0)
     << " sent\n\n";
  os << "top functions:\n" << render_top_functions(total, symbols, top_n) << "\n";

  const CommMatrix matrix = comm.finish();
  if (matrix.nprocs > 1 && matrix.total() > 0) {
    os << "communication matrix:\n" << matrix.render() << "\n";
  }
  const auto regions = omp.finish();
  if (!regions.empty()) {
    os << "OpenMP parallel regions:\n" << render_omp_regions(regions) << "\n";
  }
  const LoadBalance balance = load_balance(analyzer);
  if (!balance.busy_seconds.empty()) {
    os << str::format("load balance: busy mean %.3f s, min %.3f s, max %.3f s, "
                      "imbalance (max/mean) %.3f\n",
                      balance.mean, balance.min, balance.max, balance.imbalance);
  }
  const auto volume = store.volume_stats();
  if (volume.spilled_records > 0) {
    os << str::format("trace volume: %llu spilled record(s) in %llu byte(s) "
                      "(%.2f bytes/event)",
                      static_cast<unsigned long long>(volume.spilled_records),
                      static_cast<unsigned long long>(volume.spilled_bytes),
                      volume.bytes_per_event());
    if (volume.super_records > 0) {
      os << str::format(", suppression folded %llu record(s) into %llu super-record(s)",
                        static_cast<unsigned long long>(volume.suppressed_records),
                        static_cast<unsigned long long>(volume.super_records));
    }
    os << "\n";
  }
  return os.str();
}

std::string render_decision_log(const control::DecisionLog& log) {
  std::ostringstream os;
  os << str::format("budget %.1f%% (reactivate below %.1f%%), actuator %s\n",
                    log.options.budget_fraction * 100.0,
                    log.options.budget_fraction * log.options.reactivate_fraction * 100.0,
                    control::to_string(log.options.actuator));
  TextTable table({"sync", "t (s)", "measured", "projected", "action"});
  std::size_t quiet = 0;
  for (const auto& d : log.decisions) {
    if (d.deactivated.empty() && d.reactivated.empty()) {
      ++quiet;
      continue;
    }
    std::string action;
    if (!d.deactivated.empty()) {
      action += "-[" + str::join(d.deactivated, ", ") + "]";
    }
    if (!d.reactivated.empty()) {
      if (!action.empty()) action += " ";
      action += "+[" + str::join(d.reactivated, ", ") + "]";
    }
    table.add_row({std::to_string(d.sync), TextTable::num(sim::to_seconds(d.time), 3),
                   str::format("%.2f%%", d.estimated_overhead * 100.0),
                   str::format("%.2f%%", d.projected_overhead * 100.0), action});
  }
  os << table.render();
  os << str::format("%zu decision(s) over %zu safe point(s); %zu left the "
                    "configuration unchanged\n",
                    log.decisions.size() - quiet, log.decisions.size(), quiet);
  return os.str();
}

std::string render_health(const dpcl::HealthTracker& health) {
  const std::vector<int> nodes = health.tracked_nodes();
  if (nodes.empty()) return "node health: no requests tracked\n";
  std::ostringstream os;
  TextTable table({"node", "score", "breaker", "acks", "misses", "probes", "skips",
                   "opens", "closes"});
  std::size_t quarantined = 0;
  for (const int node : nodes) {
    const dpcl::HealthTracker::NodeHealth& h = health.node_health(node);
    if (h.state != dpcl::BreakerState::kClosed) ++quarantined;
    table.add_row({std::to_string(node), str::format("%.3f", h.score),
                   dpcl::to_string(h.state), std::to_string(h.acks),
                   std::to_string(h.misses), std::to_string(h.probes),
                   std::to_string(h.skips), std::to_string(h.opens),
                   std::to_string(h.closes)});
  }
  os << table.render();
  os << str::format("%zu node(s) tracked, %zu quarantined\n", nodes.size(), quarantined);
  return os.str();
}

}  // namespace dyntrace::analysis
