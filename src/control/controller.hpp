// Overhead-budget feedback controller (the control plane's brain).
//
// Runs inside rank 0's configuration_break() at every VT_confsync safe
// point: the estimator measures each function's probe cost x call rate over
// the last window, functions fold into *groups* (by source module, so one
// observed member of a family of generated helpers condemns the whole
// family before the rest rotate into the hot set), and a feedback policy
// keeps the job's instrumentation overhead inside a budget:
//
//   * over budget  -> deactivate the highest-overhead / lowest-information
//     groups until the projection fits;
//   * comfortable headroom (below reactivate_fraction x budget) -> bring
//     groups back, cheapest projected cost first, while the projection
//     stays inside the budget.
//
// Hysteresis: a group must dwell min_dwell_syncs safe points in its state
// before it can flip back, and reactivation needs real headroom, not just
// being under budget.
//
// Two actuators:
//   * kFilter stages VT filter directives.  A deactivated function still
//     pays call + table lookup, but keeps counting (FuncStats.filtered), so
//     reactivation projections stay precise.
//   * kProbe stages probe removals.  A removed probe costs exactly zero --
//     and is blind: it counts nothing, so a removed group stays removed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "control/estimator.hpp"
#include "vt/vtlib.hpp"

namespace dyntrace::control {

enum class Actuator : std::uint8_t { kFilter = 0, kProbe = 1 };

const char* to_string(Actuator actuator);

struct ControllerOptions {
  /// Target ceiling for instrumentation overhead as a fraction of runtime.
  double budget_fraction = 0.05;
  /// Reactivate only when the projection is below this fraction *of the
  /// budget* (hysteresis band between deactivation and reactivation).
  double reactivate_fraction = 0.6;
  /// Safe points a group must dwell in a state before flipping back.
  int min_dwell_syncs = 2;
  /// Ignore groups with fewer observed pairs in a window (noise floor).
  std::uint64_t min_pairs = 8;
  Actuator actuator = Actuator::kFilter;
};

/// What the controller did at one safe point.
struct Decision {
  std::uint64_t sync = 0;            ///< 1-based safe-point index
  sim::TimeNs time = 0;              ///< simulated time of the decision
  double estimated_overhead = 0.0;   ///< measured fraction, last window
  double projected_overhead = 0.0;   ///< fraction after the staged change
  std::vector<std::string> deactivated;  ///< group keys switched off
  std::vector<std::string> reactivated;  ///< group keys switched back on
};

struct DecisionLog {
  ControllerOptions options;
  std::vector<Decision> decisions;
};

class BudgetController {
 public:
  explicit BudgetController(ControllerOptions options = {});

  /// Wire this controller as `vt`'s configuration-break handler (call on
  /// rank 0's library only) with the job-wide staged-update channel all
  /// ranks share.
  void attach(vt::VtLib& vt, std::shared_ptr<vt::StagedUpdate> staged);

  const ControllerOptions& options() const { return log_.options; }
  const DecisionLog& log() const { return log_; }

 private:
  struct Group {
    std::string key;
    std::vector<image::FunctionId> fns;  ///< members observed so far
    bool active = true;
    std::uint64_t last_change_sync = 0;
  };

  sim::TimeNs on_break(vt::VtLib& vt);
  std::size_t group_for(vt::VtLib& vt, image::FunctionId fn);
  void stage(const std::vector<std::size_t>& deactivate,
             const std::vector<std::size_t>& reactivate, vt::VtLib& vt);

  std::shared_ptr<vt::StagedUpdate> staged_;
  OverheadEstimator estimator_;
  std::vector<Group> groups_;
  std::unordered_map<image::FunctionId, std::size_t> fn_group_;
  std::uint64_t syncs_seen_ = 0;
  DecisionLog log_;
};

/// Install the probe actuator's apply handler on one rank's library: staged
/// probe removals are applied to that process's image at the safe point
/// (removing each function's VT mini-trampolines), charging DPCL patch time
/// per probe removed.
/// Must be installed on *every* rank's VtLib when Actuator::kProbe is used.
void install_probe_edit_applier(vt::VtLib& vt);

}  // namespace dyntrace::control
