#include "dpcl/health.hpp"

#include <algorithm>

#include "fault/report.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::dpcl {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

HealthTracker::HealthTracker(const machine::FaultTolerance& policy,
                             fault::RunReport* report)
    : policy_(policy), report_(report) {}

void HealthTracker::transition(NodeHealth& h, int node, BreakerState to,
                               sim::TimeNs now) {
  if (h.state == to) return;
  h.state = to;
  telemetry::Registry& reg = telemetry::current();
  const telemetry::Metrics& tm = reg.metrics();
  reg.set(tm.dpcl_breaker_state, static_cast<std::int64_t>(to));
  const char* kind = nullptr;
  switch (to) {
    case BreakerState::kOpen:
      h.opened_at = now;
      ++h.opens;
      reg.add(tm.dpcl_breaker_opens);
      kind = "breaker-open";
      break;
    case BreakerState::kHalfOpen:
      ++h.probes;
      reg.add(tm.dpcl_breaker_probes);
      kind = "breaker-probe";
      break;
    case BreakerState::kClosed:
      ++h.closes;
      reg.add(tm.dpcl_breaker_closes);
      kind = "breaker-close";
      break;
  }
  if (report_ != nullptr) {
    report_->add(now, kind,
                 str::format("node=%d score=%.3f misses=%d", node, h.score,
                             h.consecutive_misses));
  }
}

void HealthTracker::record_attempt(int node, bool acked, sim::TimeNs latency,
                                   sim::TimeNs now) {
  NodeHealth& h = nodes_[node];
  double sample = 0.0;
  if (acked) {
    ++h.acks;
    h.consecutive_misses = 0;
    sample = latency <= policy_.health_latency_ref
                 ? 1.0
                 : static_cast<double>(policy_.health_latency_ref) /
                       static_cast<double>(latency);
  } else {
    ++h.misses;
    ++h.consecutive_misses;
  }
  h.score = (1.0 - policy_.health_alpha) * h.score + policy_.health_alpha * sample;
  {
    telemetry::Registry& reg = telemetry::current();
    reg.observe(reg.metrics().dpcl_health_score,
                static_cast<std::uint64_t>(h.score * 1000.0));
  }
  switch (h.state) {
    case BreakerState::kHalfOpen:
      // This attempt was the half-open probe: its outcome decides.
      transition(h, node, acked ? BreakerState::kClosed : BreakerState::kOpen, now);
      break;
    case BreakerState::kClosed:
      if (h.consecutive_misses >= policy_.breaker_failure_threshold ||
          h.score < policy_.breaker_score_floor) {
        transition(h, node, BreakerState::kOpen, now);
      }
      break;
    case BreakerState::kOpen:
      // Stragglers of a request begun before the breaker opened only feed
      // the score; re-admission goes through a half-open probe.
      break;
  }
}

HealthTracker::Admit HealthTracker::admit(int node, sim::TimeNs now) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) return Admit::kNormal;
  NodeHealth& h = it->second;
  switch (h.state) {
    case BreakerState::kClosed:
      break;
    case BreakerState::kHalfOpen:
      return Admit::kProbe;
    case BreakerState::kOpen:
      if (now - h.opened_at >= policy_.breaker_cooldown) {
        transition(h, node, BreakerState::kHalfOpen, now);
        return Admit::kProbe;
      }
      ++h.skips;
      {
        telemetry::Registry& reg = telemetry::current();
        reg.add(reg.metrics().dpcl_breaker_skips);
      }
      return Admit::kSkip;
  }
  return Admit::kNormal;
}

double HealthTracker::score(int node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? 1.0 : it->second.score;
}

BreakerState HealthTracker::state(int node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? BreakerState::kClosed : it->second.state;
}

const HealthTracker::NodeHealth& HealthTracker::node_health(int node) const {
  static const NodeHealth kFresh;
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? kFresh : it->second;
}

std::vector<int> HealthTracker::tracked_nodes() const {
  std::vector<int> out;
  out.reserve(nodes_.size());
  for (const auto& [node, h] : nodes_) out.push_back(node);
  return out;
}

}  // namespace dyntrace::dpcl
