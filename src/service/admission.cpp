#include "service/admission.hpp"

#include <algorithm>
#include <functional>

#include "support/common.hpp"

namespace dyntrace::service {

AdmissionController::AdmissionController(
    std::shared_ptr<const image::SymbolTable> symbols, control::PairPrice pair_price,
    AdmissionOptions options)
    : symbols_(std::move(symbols)), price_(pair_price), options_(options) {
  DT_EXPECT(symbols_ != nullptr, "admission controller needs a symbol table");
  fns_.resize(symbols_->size());
}

AdmitResult AdmissionController::admit(SessionId session,
                                       const std::vector<image::FunctionId>& fns) {
  AdmitResult result;

  // Price the request in ascending id order, each function once.  The
  // service hands over ids already sorted and deduplicated, so only an ad
  // hoc caller pays for the copy.
  std::vector<image::FunctionId> sorted;
  const std::vector<image::FunctionId>* ids = &fns;
  if (std::adjacent_find(fns.begin(), fns.end(), std::greater_equal<>()) != fns.end()) {
    sorted = fns;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    ids = &sorted;
  }

  // The marginal cost is the functions nobody holds yet; held functions --
  // the session's own included -- are already priced in.
  double marginal_active = 0.0;
  double marginal_residual = 0.0;
  for (const image::FunctionId fn : *ids) {
    DT_ASSERT(fn < fns_.size(), "admit: function id out of range");
    const FnState& state = fns_[fn];
    if (state.holders > 0) continue;
    const double r = rate(state);
    marginal_active += control::overhead_fraction(price_.active, r);
    marginal_residual += control::overhead_fraction(price_.residual, r);
  }

  const double priced = priced_fraction();
  const bool fits_active = priced + marginal_active <= options_.budget_fraction;
  const bool fits_residual = priced + marginal_residual <= options_.budget_fraction;
  if (!fits_active && !fits_residual) {
    result.decision = AdmitDecision::kDenied;
    result.projected_fraction = priced;
    return result;
  }

  // Grant what the session does not hold yet (a repeat grant must not
  // double-count holders).
  DT_ASSERT(session <= kMaxSessionId, "admit: session id ", session, " out of range");
  if (session >= grants_.size()) grants_.resize(static_cast<std::size_t>(session) + 1);
  std::vector<image::FunctionId>& held = grants_[session];
  bool touches_degraded = false;
  for (const image::FunctionId fn : *ids) {
    if (std::find(held.begin(), held.end(), fn) != held.end()) continue;
    FnState& state = fns_[fn];
    if (state.holders == 0) {
      result.install.push_back(fn);
      state.filtered = !fits_active;
      if (state.filtered) {
        result.directives.push_back({/*activate=*/false, symbols_->at(fn).name});
      }
    } else if (state.filtered) {
      touches_degraded = true;
    }
    ++state.holders;
    held.push_back(fn);
  }
  if (!result.install.empty()) ++version_;
  result.decision = (!fits_active || touches_degraded) ? AdmitDecision::kDegraded
                                                       : AdmitDecision::kAdmitted;
  result.projected_fraction = priced_fraction();
  return result;
}

ReleaseResult AdmissionController::release(SessionId session) {
  ReleaseResult result;
  if (session >= grants_.size()) return result;
  std::vector<image::FunctionId>& held = grants_[session];
  for (const image::FunctionId fn : held) {
    FnState& state = fns_[fn];
    DT_ASSERT(state.holders > 0, "release: holder underflow");
    if (--state.holders == 0) {
      ++version_;
      result.remove.push_back(fn);
      if (state.filtered) {
        result.directives.push_back({/*activate=*/true, symbols_->at(fn).name});
        state.filtered = false;
      }
    }
  }
  std::sort(result.remove.begin(), result.remove.end());
  std::vector<image::FunctionId>().swap(held);
  return result;
}

void AdmissionController::update_rate(image::FunctionId fn, double pairs_per_sec) {
  if (fn >= fns_.size() || fns_[fn].holders == 0) {
    ++rate_updates_ignored_;
    return;
  }
  FnState& state = fns_[fn];
  if (!state.rate_observed || state.rate_hz != pairs_per_sec) ++version_;
  state.rate_hz = pairs_per_sec;
  state.rate_observed = true;
}

ArbitrateResult AdmissionController::arbitrate() {
  ArbitrateResult result;
  while (priced_fraction() > options_.budget_fraction) {
    // The legacy (pure-price) victim: most expensive active function
    // overall, lowest id on ties.  Kept as the fairness-divergence baseline.
    image::FunctionId priciest = image::kInvalidFunction;
    double worst = 0.0;
    for (image::FunctionId fn = 0; fn < fns_.size(); ++fn) {
      const FnState& state = fns_[fn];
      if (state.holders == 0 || state.filtered) continue;
      const double f = fraction(state);
      if (priciest == image::kInvalidFunction || f > worst) {
        priciest = fn;
        worst = f;
      }
    }
    if (priciest == image::kInvalidFunction) {
      result.at_floor = true;
      break;
    }

    // Fair-share victim: charge each session its attributed cost -- active
    // fractions split evenly across holders -- and degrade the costliest
    // session's most expensive active function.  grants_ iterates in
    // session-id order, so the strict > keeps the lowest id on ties.
    SessionId victim_session = 0;
    double victim_cost = -1.0;
    for (SessionId session = 0; session < grants_.size(); ++session) {
      const std::vector<image::FunctionId>& held = grants_[session];
      if (held.empty()) continue;
      double cost = 0.0;
      for (const image::FunctionId fn : held) {
        const FnState& state = fns_[fn];
        if (state.filtered) continue;
        cost += fraction(state) / static_cast<double>(state.holders);
      }
      if (cost > victim_cost + 1e-15) {
        victim_session = session;
        victim_cost = cost;
      }
    }
    image::FunctionId victim = image::kInvalidFunction;
    double victim_fraction = 0.0;
    if (victim_cost > 0.0) {
      std::vector<image::FunctionId> held = grants_[victim_session];
      std::sort(held.begin(), held.end());
      for (const image::FunctionId fn : held) {
        const FnState& state = fns_[fn];
        if (state.filtered) continue;
        const double f = fraction(state);
        if (victim == image::kInvalidFunction || f > victim_fraction + 1e-15) {
          victim = fn;
          victim_fraction = f;
        }
      }
    }
    if (victim == image::kInvalidFunction) victim = priciest;
    if (victim != priciest) ++result.fairshare_flips;

    fns_[victim].filtered = true;
    ++version_;
    result.flipped.push_back(victim);
    result.directives.push_back({/*activate=*/false, symbols_->at(victim).name});
  }
  return result;
}

void AdmissionController::replay(const vt::FilterProgram& applied) {
  const vt::CompiledFilter compiled(*symbols_, applied);
  const std::vector<vt::FilterAction>& delta = compiled.delta();
  for (std::size_t fn = 0; fn < delta.size(); ++fn) {
    if (delta[fn] == vt::FilterAction::kUntouched || fns_[fn].holders == 0) continue;
    const bool filtered = delta[fn] == vt::FilterAction::kDeactivate;
    if (fns_[fn].filtered != filtered) {
      fns_[fn].filtered = filtered;
      ++version_;
    }
  }
}

double AdmissionController::priced_fraction() const {
  if (priced_version_ == version_) return priced_;
  priced_ = 0.0;
  for (const FnState& state : fns_) {
    if (state.holders > 0) priced_ += fraction(state);
  }
  priced_version_ = version_;
  return priced_;
}

}  // namespace dyntrace::service
