// Admission control: keeps the combined per-job instrumentation overhead
// of all concurrent sessions under one budget (DESIGN.md §13.2).
//
// Pure bookkeeping over the control plane's const pricing API -- no
// simulation types, no coroutines -- so the policy is unit-testable on its
// own.  The ControlService owns one instance and is the only writer.
//
// Model: every dynprof probe pair costs the same (control::probe_pair_price
// is uniform across functions), so a function's overhead fraction is
// price x observed call rate.  The controller tracks, per function,
//   * holders -- how many sessions hold a grant on it (probes are shared:
//     installed on 0->1, removed on ->0);
//   * filtered -- whether the function currently sits on the Subset rung
//     (filter-deactivated: residual lookup cost instead of the full pair);
//   * rate -- completed+suppressed pairs per second, learned from the
//     estimator's windows (default_rate_hz until first observed).
//
// admit() reuses PR 4's degradation ladder for the answer:
//   Dynamic (kAdmitted)  -- the set fits fully active;
//   Subset  (kDegraded)  -- only fits with the new functions deactivated
//                           through the filter (directives returned for the
//                           next safe point), or shares an already-degraded
//                           function;
//   None    (kDenied)    -- does not fit even degraded (the service queues
//                           and retries before surfacing this).
//
// arbitrate() restores the invariant after rates move.  Flips are chosen
// *fair-share*: each flip charges the session with the largest attributed
// cost (sum over its active functions of fraction/holders -- shared
// functions split their cost evenly), flipping that session's most
// expensive active function.  A lone session degrades exactly as the old
// most-expensive-first walk did; with several tenants the policy stops one
// cheap session from being starved because a noisy neighbour's functions
// happen to price lower individually.  Ties break on lowest session id,
// then lowest function id, so the walk stays deterministic; at_floor is
// reported when everything is already degraded.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "control/pricing.hpp"
#include "service/session.hpp"

namespace dyntrace::service {

struct AdmissionOptions {
  /// Ceiling for the priced per-process overhead fraction.
  double budget_fraction = 0.05;
  /// Assumed call rate (pairs/sec) for functions with no observed window.
  double default_rate_hz = 1000.0;
};

enum class AdmitDecision : std::uint8_t { kAdmitted = 0, kDegraded, kDenied };

struct AdmitResult {
  AdmitDecision decision = AdmitDecision::kDenied;
  /// Functions to physically instrument (holder count went 0 -> 1).
  std::vector<image::FunctionId> install;
  /// Filter directives to stage (degrade flips for the new functions).
  vt::FilterProgram directives;
  /// Priced fraction after the grant (unchanged when denied).
  double projected_fraction = 0.0;
};

struct ReleaseResult {
  /// Functions whose probes should be removed (holder count hit 0).
  std::vector<image::FunctionId> remove;
  /// Directives clearing their filter entries so a later re-admission
  /// starts from a clean table.
  vt::FilterProgram directives;
};

struct ArbitrateResult {
  vt::FilterProgram directives;
  std::vector<image::FunctionId> flipped;
  /// Still over budget with every installed function already filtered: the
  /// residual lookup cost alone exceeds the budget.  Admissions stop; the
  /// invariant reported per window is "priced <= budget OR at_floor".
  bool at_floor = false;
  /// Flips where fair-share picked a different victim than the legacy
  /// most-expensive-first walk would have -- i.e. fairness overrode price.
  std::uint32_t fairshare_flips = 0;
};

class AdmissionController {
 public:
  AdmissionController(std::shared_ptr<const image::SymbolTable> symbols,
                      control::PairPrice pair_price, AdmissionOptions options);

  /// Price and decide one session's requested probe set.  Mutates holder
  /// counts and filter intent on admit/degrade; a denial changes nothing
  /// and, for a sorted duplicate-free `fns`, allocates nothing.  Repeat
  /// grants to one session merge (functions are held once).
  AdmitResult admit(SessionId session, const std::vector<image::FunctionId>& fns);

  /// Drop every grant the session holds.
  ReleaseResult release(SessionId session);

  /// Learn a window's observed rate for one function.  Rates reported for
  /// functions nobody holds (a release raced the estimator window, or a
  /// stale line) are ignored and counted -- pricing a future admission of
  /// that function from a rate observed under different instrumentation
  /// would be wrong, and learning rates for never-installed ids was how the
  /// default-rate path silently rotted.
  void update_rate(image::FunctionId fn, double pairs_per_sec);
  std::uint64_t rate_updates_ignored() const { return rate_updates_ignored_; }

  /// Re-establish priced <= budget after rates moved or a replayed program
  /// reactivated functions.  Flips are deterministic and fair-share (see
  /// the header comment): costliest session first, lowest ids on ties.
  ArbitrateResult arbitrate();

  /// Mirror the filter program rank 0 actually applied at a safe point
  /// (sessions' own confsync directives included), in applied order.
  void replay(const vt::FilterProgram& applied);

  /// Priced per-process overhead fraction of everything installed.
  /// Cached; recomputed (in function-id order) once per version.
  double priced_fraction() const;

  /// Pricing epoch: advances exactly when an input to a denial changes
  /// (DESIGN.md §13), so a request denied at version v stays denied while
  /// version() == v.
  std::uint64_t version() const { return version_; }

  const AdmissionOptions& options() const { return options_; }

 private:
  struct FnState {
    int holders = 0;
    bool filtered = false;
    double rate_hz = 0.0;
    bool rate_observed = false;
  };

  double rate(const FnState& state) const {
    return state.rate_observed ? state.rate_hz : options_.default_rate_hz;
  }
  double fraction(const FnState& state) const {
    return control::overhead_fraction(
        state.filtered ? price_.residual : price_.active, rate(state));
  }

  std::shared_ptr<const image::SymbolTable> symbols_;
  control::PairPrice price_;
  AdmissionOptions options_;
  std::vector<FnState> fns_;
  std::uint64_t rate_updates_ignored_ = 0;
  std::uint64_t version_ = 0;
  mutable std::uint64_t priced_version_ = 0;
  mutable double priced_ = 0.0;  ///< priced_fraction() as of priced_version_
  /// Functions each session holds, indexed by session id (dense from 0;
  /// grows to the largest id admitted).  arbitrate() walks it in id order.
  std::vector<std::vector<image::FunctionId>> grants_;
};

}  // namespace dyntrace::service
