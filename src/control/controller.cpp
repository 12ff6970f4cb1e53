#include "control/controller.hpp"

#include <algorithm>
#include <utility>

#include "image/image.hpp"
#include "support/common.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::control {

namespace {

/// Modelled cost of the controller's own decision logic per active record
/// scanned (a table walk over the statistics snapshot).
constexpr sim::TimeNs kScanCostPerRecord = 200;

}  // namespace

const char* to_string(Actuator actuator) {
  return actuator == Actuator::kFilter ? "filter" : "probe";
}

BudgetController::BudgetController(ControllerOptions options) {
  DT_EXPECT(options.budget_fraction > 0, "budget_fraction must be positive");
  DT_EXPECT(options.reactivate_fraction > 0 && options.reactivate_fraction <= 1,
            "reactivate_fraction must be in (0, 1]");
  log_.options = options;
}

void BudgetController::attach(vt::VtLib& vt, std::shared_ptr<vt::StagedUpdate> staged) {
  DT_EXPECT(staged != nullptr, "controller needs the job's staged-update channel");
  staged_ = std::move(staged);
  vt.set_break_handler([this](vt::VtLib& v) { return on_break(v); });
}

std::size_t BudgetController::group_for(vt::VtLib& vt, image::FunctionId fn) {
  if (auto it = fn_group_.find(fn); it != fn_group_.end()) return it->second;
  const image::SymbolTable& symbols = vt.process().image().symbols();
  const image::FunctionInfo& info = symbols.at(fn);
  const std::size_t index = groups_.size();
  if (info.module.empty()) {
    // No module: the function is a group of its own.
    groups_.push_back(Group{info.name, {fn}, true, 0});
    fn_group_.emplace(fn, index);
    return index;
  }
  // Enroll the *whole* module family up front: observing one member must
  // condemn (or reinstate) its siblings too, or generated-helper families
  // simply rotate fresh members into the hot set after every staging round.
  groups_.push_back(Group{info.module, {}, true, 0});
  for (const image::FunctionInfo& member : symbols.all()) {
    if (member.module != info.module) continue;
    groups_[index].fns.push_back(member.id);
    fn_group_.emplace(member.id, index);
  }
  return index;
}

sim::TimeNs BudgetController::on_break(vt::VtLib& vt) {
  const std::uint64_t sync = ++syncs_seen_;
  const sim::TimeNs now = vt.process().engine().now();
  const Estimate est = estimator_.update(vt, now);
  const ControllerOptions& opt = log_.options;
  if (est.window <= 0) return 0;

  // Fold function estimates into group accumulators for this window.
  struct Acc {
    sim::TimeNs current = 0;
    sim::TimeNs active = 0;
    sim::TimeNs residual = 0;
    std::uint64_t pairs = 0;
    sim::TimeNs exclusive = 0;
  };
  std::unordered_map<std::size_t, Acc> accs;
  for (const FunctionEstimate& f : est.functions) {
    Acc& a = accs[group_for(vt, f.fn)];
    a.current += f.current_cost;
    a.active += f.active_cost;
    a.residual += f.residual_cost;
    a.pairs += f.pairs + f.suppressed;
    a.exclusive += f.mean_exclusive * static_cast<sim::TimeNs>(f.pairs);
  }

  const double window = static_cast<double>(est.window);
  double projected = est.overhead_fraction();
  Decision decision;
  decision.sync = sync;
  decision.time = now;
  decision.estimated_overhead = projected;

  std::vector<std::size_t> deactivate;
  std::vector<std::size_t> reactivate;

  if (projected > opt.budget_fraction) {
    // Rank candidates by overhead per unit of information: a group burning
    // budget on sub-microsecond leaf calls scores far above one whose pairs
    // carry real exclusive time, so it is condemned first (the paper's
    // "uninteresting frequently called small subroutines").
    struct Candidate {
      double score;
      double savings;  ///< projection drop if deactivated
      std::size_t index;
    };
    std::vector<Candidate> candidates;
    for (const auto& [index, a] : accs) {
      Group& g = groups_[index];
      if (!g.active || a.pairs < opt.min_pairs) continue;
      if (sync - g.last_change_sync < static_cast<std::uint64_t>(opt.min_dwell_syncs) &&
          g.last_change_sync != 0) {
        continue;
      }
      const double cost_fraction = static_cast<double>(a.current) / window;
      const double mean_exclusive_us =
          a.pairs > 0 ? static_cast<double>(a.exclusive) / static_cast<double>(a.pairs) / 1e3
                      : 0.0;
      const double floor_fraction =
          opt.actuator == Actuator::kFilter ? static_cast<double>(a.residual) / window : 0.0;
      candidates.push_back(
          Candidate{cost_fraction / (1.0 + mean_exclusive_us),
                    cost_fraction - floor_fraction, index});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) { return x.score > y.score; });
    for (const Candidate& cand : candidates) {
      if (projected <= opt.budget_fraction) break;
      // Condemning a group that contributes noise-level savings loses its
      // coverage without moving the projection: require at least 1% of the
      // budget back before switching a group off.
      if (cand.savings <= 0.01 * opt.budget_fraction) continue;
      Group& g = groups_[cand.index];
      g.active = false;
      g.last_change_sync = sync;
      projected -= cand.savings;
      deactivate.push_back(cand.index);
      decision.deactivated.push_back(g.key);
    }
  } else if (opt.actuator == Actuator::kFilter &&
             projected < opt.reactivate_fraction * opt.budget_fraction) {
    // Headroom: bring groups back, cheapest projection first, as long as
    // the total stays inside the budget (not just inside the headroom
    // band -- that asymmetry is the hysteresis).  A removed probe counts
    // nothing, so a probe-removed group stays removed.
    struct Candidate {
      double added;  ///< projection increase if reactivated
      std::size_t index;
    };
    std::vector<Candidate> candidates;
    for (std::size_t index = 0; index < groups_.size(); ++index) {
      Group& g = groups_[index];
      if (g.active) continue;
      if (sync - g.last_change_sync < static_cast<std::uint64_t>(opt.min_dwell_syncs)) {
        continue;
      }
      // The filtered counters kept counting, so this window *is* the
      // group's live rate: project the reactivation cost from it.  No
      // activity at all means the rate collapsed -- reinstating coverage
      // is free (and the next window re-measures it if it comes back).
      const auto it = accs.find(index);
      const double added =
          it == accs.end() ? 0.0
                           : static_cast<double>(it->second.active - it->second.current) / window;
      candidates.push_back(Candidate{added, index});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) { return x.added < y.added; });
    for (const Candidate& cand : candidates) {
      if (projected + cand.added > opt.budget_fraction) continue;
      Group& g = groups_[cand.index];
      g.active = true;
      g.last_change_sync = sync;
      projected += cand.added;
      reactivate.push_back(cand.index);
      decision.reactivated.push_back(g.key);
    }
  }

  decision.projected_overhead = projected;
  if (!deactivate.empty() || !reactivate.empty()) {
    stage(deactivate, reactivate, vt);
  }
  telemetry::Registry& reg = telemetry::current();
  const telemetry::Metrics& tm = reg.metrics();
  reg.add(tm.control_decisions);
  reg.add(tm.control_deactivations, decision.deactivated.size());
  reg.add(tm.control_reactivations, decision.reactivated.size());
  if (reg.spans_enabled() && (!decision.deactivated.empty() || !decision.reactivated.empty())) {
    // Mark staging decisions on the tool track so they line up against the
    // confsync spans of the ranks that will apply them next round.
    reg.name_track(telemetry::Metrics::kToolTrack, "controller");
    reg.span_instant(tm.span_decision, telemetry::Metrics::kToolTrack, now);
  }
  log_.decisions.push_back(decision);
  return kScanCostPerRecord * static_cast<sim::TimeNs>(est.functions.size());
}

void BudgetController::stage(const std::vector<std::size_t>& deactivate,
                             const std::vector<std::size_t>& reactivate, vt::VtLib& vt) {
  // Safe to overwrite: the confsync protocol ends in a barrier, so every
  // rank applied the previous version before this break could run.
  staged_->program.clear();
  staged_->probe_removals.clear();
  const image::SymbolTable& symbols = vt.process().image().symbols();
  auto emit = [&](std::size_t index, bool activate) {
    for (const image::FunctionId fn : groups_[index].fns) {
      if (log_.options.actuator == Actuator::kFilter) {
        staged_->program.push_back(vt::FilterDirective{activate, symbols.at(fn).name});
      } else {
        staged_->probe_removals.push_back(fn);
      }
    }
  };
  for (const std::size_t index : deactivate) emit(index, false);
  for (const std::size_t index : reactivate) emit(index, true);
  ++staged_->version;
}

void install_probe_edit_applier(vt::VtLib& vt) {
  vt.set_apply_edits_handler(
      [](vt::VtLib& v, const std::vector<image::FunctionId>& removals) -> sim::TimeNs {
        image::ProgramImage& img = v.process().image();
        const machine::CostModel& c = v.process().cluster().spec().costs;
        std::size_t probes_touched = 0;
        for (const image::FunctionId fn : removals) {
          for (auto where : {image::ProbeWhere::kEntry, image::ProbeWhere::kExit}) {
            probes_touched += img.remove_probes(fn, where);
          }
        }
        return c.dpcl_patch_per_probe * static_cast<sim::TimeNs>(probes_touched);
      });
}

}  // namespace dyntrace::control
