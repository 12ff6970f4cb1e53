#include "control/overlay.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "fault/injector.hpp"
#include "mpi/world.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace dyntrace::control {

namespace {

/// Overlay traffic lives in its own positive tag band (fault::kOverlayTagBase,
/// shared with the injector's channel classifier), far above anything the
/// workloads use (their tags are < 1000) and disjoint from the negative
/// collective space.  The per-rank round counter salts the tag so a slow
/// sync can never match the next one's messages.
constexpr int overlay_tag(std::uint32_t round) {
  return fault::kOverlayTagBase + static_cast<int>(round % 1'000'000u);
}

/// Serialized payload: a 16-byte header (round, record count) plus only the
/// records with activity -- idle functions travel for free.
std::int64_t payload_bytes(const std::vector<vt::FuncStats>& stats,
                           const machine::CostModel& costs) {
  return 16 + vt::nonzero_stat_count(stats) * costs.vt_stats_bytes_per_func;
}

}  // namespace

std::vector<int> ReductionPlan::children(int rank) const {
  std::vector<int> result;
  for (int i = 1; i <= arity; ++i) {
    const std::int64_t child = static_cast<std::int64_t>(rank) * arity + i;
    if (child >= size) break;
    result.push_back(static_cast<int>(child));
  }
  return result;
}

StatsOverlay::StatsOverlay(int arity) : arity_(arity) {
  DT_EXPECT(arity >= 2, "overlay arity must be >= 2, got ", arity);
}

void StatsOverlay::prepare(int size) {
  if (slots_.size() < static_cast<std::size_t>(size)) {
    slots_.resize(static_cast<std::size_t>(size));
    contrib_slots_.resize(static_cast<std::size_t>(size));
    round_.resize(static_cast<std::size_t>(size), 0);
  }
}

sim::Coro<void> StatsOverlay::reduce(proc::SimThread& thread, vt::VtLib& vt) {
  machine::Cluster& cluster = vt.process().cluster();
  fault::FaultInjector& injector = cluster.fault_injector();
  const machine::CostModel& costs = cluster.spec().costs;
  const machine::FaultTolerance& ft = cluster.spec().fault;
  mpi::Rank* rank = vt.mpi_rank();
  const int p = rank != nullptr ? rank->size() : 1;
  const int r = rank != nullptr ? rank->rank() : 0;
  prepare(p);  // no-op after an up-front prepare(); lazy otherwise
  const std::uint32_t round = round_[static_cast<std::size_t>(r)]++;
  const ReductionPlan plan{p, arity_};

  // A rank killed by the fault plan contributes nothing; its parent's
  // bounded wait is what detects the silence.
  if (!injector.rank_alive(r, thread.engine().now(), job_)) co_return;
  const auto alive = [&](int q) {
    return injector.rank_alive(q, thread.engine().now(), job_);
  };

  telemetry::Registry& reg = telemetry::current();
  const telemetry::Metrics& tm = reg.metrics();
  const sim::TimeNs entered = thread.engine().now();
  telemetry::ScopedSpan span(
      reg, tm.span_reduce, static_cast<std::uint32_t>(r),
      [](const void* ctx) { return static_cast<const sim::Engine*>(ctx)->now(); },
      &thread.engine());

  // Effective children: live direct children, plus -- for every dead child
  // -- its own children, spliced up recursively (the re-parenting rule:
  // orphans attach to their first live ancestor, which is exactly who waits
  // for them here).
  std::vector<int> kids;
  {
    std::vector<int> frontier = plan.children(r);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const int child = frontier[i];
      if (alive(child)) {
        kids.push_back(child);
      } else {
        const auto grandchildren = plan.children(child);
        frontier.insert(frontier.end(), grandchildren.begin(), grandchildren.end());
      }
    }
  }

  std::vector<vt::FuncStats> acc = vt.statistics();
  std::vector<int> contributed{r};
  for (const int child : kids) {
    const bool got =
        co_await rank->recv_for(thread, child, overlay_tag(round), ft.overlay_child_timeout);
    if (!got) continue;  // silent subtree; the root will report it missing
    const auto& from = slots_[static_cast<std::size_t>(child)];
    // Combine cost scales with the records that actually arrived, not with
    // the table size -- the interior rank's share of the reduction work.
    co_await thread.compute(costs.vt_stats_merge_per_record * vt::nonzero_stat_count(from));
    vt::merge_stats(acc, from);
    const auto& merged_ranks = contrib_slots_[static_cast<std::size_t>(child)];
    contributed.insert(contributed.end(), merged_ranks.begin(), merged_ranks.end());
  }

  if (r == 0) {
    // The root formats + writes only the merged records: O(active funcs)
    // instead of the flat gather's O(P * nfuncs).
    co_await thread.compute(costs.vt_stats_write_per_record * vt::nonzero_stat_count(acc));
    root_result_ = std::move(acc);
    ++rounds_;
    reg.add(tm.control_overlay_rounds);
    // Root fan-in latency: from the root entering the reduction to holding
    // the fully merged table (the wait for the slowest subtree dominates).
    reg.observe(tm.control_overlay_fanin_ns,
                static_cast<std::uint64_t>(thread.engine().now() - entered));
    std::sort(contributed.begin(), contributed.end());
    if (static_cast<int>(contributed.size()) < p) {
      SyncReport report;
      report.round = round;
      for (int q = 0, c = 0; q < p; ++q) {
        while (c < static_cast<int>(contributed.size()) && contributed[c] < q) ++c;
        if (c >= static_cast<int>(contributed.size()) || contributed[c] != q) {
          report.missing.push_back(q);
        }
      }
      const int quorum_needed =
          static_cast<int>(std::ceil(ft.sync_quorum * static_cast<double>(p)));
      report.quorum_met = static_cast<int>(contributed.size()) >= quorum_needed;
      injector.report().add(
          thread.engine().now(), "partial-sync",
          str::format("round=%u got %zu of %d%s", round, contributed.size(), p,
                      report.quorum_met ? "" : " (below quorum)"),
          report.missing);
      partial_syncs_.push_back(std::move(report));
    }
  } else {
    int parent = plan.parent(r);
    while (parent != 0 && !alive(parent)) parent = plan.parent(parent);
    auto& slot = slots_[static_cast<std::size_t>(r)];
    slot = std::move(acc);
    contrib_slots_[static_cast<std::size_t>(r)] = std::move(contributed);
    co_await rank->send(thread, parent, overlay_tag(round), payload_bytes(slot, costs));
  }
}

}  // namespace dyntrace::control
