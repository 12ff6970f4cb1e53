// AdmissionController unit tests: the Dynamic -> Subset -> None ladder over
// the const pricing model, grant sharing, release, deterministic budget
// arbitration, replay reconciliation, and the pricing epoch the service's
// admission queue relies on -- all sim-free.
#include "service/admission.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "support/rng.hpp"

namespace dyntrace::service {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols(int fns) {
  auto table = std::make_shared<image::SymbolTable>();
  for (int i = 0; i < fns; ++i) table->add("fn" + std::to_string(i), "mod.c");
  return table;
}

// active = 20'000 ns/pair at the 1000 Hz default rate -> 2% per function;
// residual -> 0.05% per function.  Budget 5%: two functions fit active,
// the third only filtered.
AdmissionController make_controller(int fns = 8, sim::TimeNs active = 20'000,
                                    sim::TimeNs residual = 500) {
  return AdmissionController(make_symbols(fns), control::PairPrice{active, residual},
                             AdmissionOptions{0.05, 1000.0});
}

TEST(Admission, AdmitsWithinBudget) {
  AdmissionController ctl = make_controller();
  const AdmitResult result = ctl.admit(0, {0});
  EXPECT_EQ(result.decision, AdmitDecision::kAdmitted);
  EXPECT_EQ(result.install, (std::vector<image::FunctionId>{0}));
  EXPECT_TRUE(result.directives.empty());
  EXPECT_NEAR(result.projected_fraction, 0.02, 1e-12);
  EXPECT_TRUE(ctl.installed(0));
  EXPECT_FALSE(ctl.filtered(0));
}

TEST(Admission, SharedFunctionsArePricedOnce) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});
  const AdmitResult shared = ctl.admit(1, {0, 1});
  EXPECT_EQ(shared.decision, AdmitDecision::kAdmitted);
  EXPECT_TRUE(shared.install.empty());  // probes already in
  EXPECT_NEAR(shared.projected_fraction, 0.04, 1e-12);
  EXPECT_EQ(ctl.holders(0), 2);
}

TEST(Admission, DegradesWhenOnlyResidualFits) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});  // 4% active
  const AdmitResult result = ctl.admit(1, {2});
  EXPECT_EQ(result.decision, AdmitDecision::kDegraded);
  EXPECT_EQ(result.install, (std::vector<image::FunctionId>{2}));
  ASSERT_EQ(result.directives.size(), 1u);
  EXPECT_FALSE(result.directives[0].activate);
  EXPECT_EQ(result.directives[0].pattern, "fn2");
  EXPECT_TRUE(ctl.filtered(2));
  EXPECT_LE(result.projected_fraction, 0.05 + 1e-12);
}

TEST(Admission, JoiningADegradedGrantReportsDegraded) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});
  ctl.admit(1, {2});  // degraded
  const AdmitResult join = ctl.admit(2, {2});
  EXPECT_EQ(join.decision, AdmitDecision::kDegraded);
  EXPECT_TRUE(join.install.empty());
}

TEST(Admission, DeniesWhenEvenResidualExceeds) {
  // Residual as expensive as active: nothing fits once 4% is committed.
  AdmissionController ctl = make_controller(8, 20'000, 20'000);
  ctl.admit(0, {0, 1});
  const AdmitResult denied = ctl.admit(1, {2});
  EXPECT_EQ(denied.decision, AdmitDecision::kDenied);
  EXPECT_TRUE(denied.install.empty());
  EXPECT_FALSE(ctl.installed(2));
  EXPECT_EQ(ctl.holders(2), 0);
  EXPECT_NEAR(ctl.priced_fraction(), 0.04, 1e-12);  // unchanged
}

TEST(Admission, ReleaseRemovesAndReactivates) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});
  ctl.admit(1, {2});  // degraded, filtered
  const ReleaseResult released = ctl.release(1);
  EXPECT_EQ(released.remove, (std::vector<image::FunctionId>{2}));
  ASSERT_EQ(released.directives.size(), 1u);
  EXPECT_TRUE(released.directives[0].activate);  // clear the filter entry
  EXPECT_FALSE(ctl.installed(2));
  EXPECT_FALSE(ctl.filtered(2));
  // Headroom restored: the set fits active again.
  const AdmitResult again = ctl.admit(2, {2});
  EXPECT_EQ(again.decision, AdmitDecision::kDegraded);  // 6% active > 5%
}

TEST(Admission, SharedReleaseKeepsProbes) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0});
  ctl.admit(1, {0});
  EXPECT_TRUE(ctl.release(0).remove.empty());  // session 1 still holds fn0
  EXPECT_TRUE(ctl.installed(0));
  EXPECT_EQ(ctl.release(1).remove, (std::vector<image::FunctionId>{0}));
  EXPECT_FALSE(ctl.installed(0));
}

TEST(Admission, ArbitrateFlipsMostExpensiveFirst) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});
  // fn0's observed rate triples: 6% + 2% > 5% budget.
  ctl.update_rate(0, 3000.0);
  const ArbitrateResult result = ctl.arbitrate();
  EXPECT_EQ(result.flipped, (std::vector<image::FunctionId>{0}));
  ASSERT_EQ(result.directives.size(), 1u);
  EXPECT_FALSE(result.directives[0].activate);
  EXPECT_EQ(result.directives[0].pattern, "fn0");
  EXPECT_FALSE(result.at_floor);
  EXPECT_TRUE(ctl.filtered(0));
  EXPECT_LE(ctl.priced_fraction(), 0.05 + 1e-12);
}

TEST(Admission, ArbitrateReportsFloor) {
  AdmissionController ctl = make_controller(8, 20'000, 18'000);
  ctl.admit(0, {0, 1});
  ctl.update_rate(0, 10'000.0);
  ctl.update_rate(1, 10'000.0);
  const ArbitrateResult result = ctl.arbitrate();
  // Everything flipped, residual alone still exceeds the budget.
  EXPECT_EQ(result.flipped, (std::vector<image::FunctionId>{0, 1}));
  EXPECT_TRUE(result.at_floor);
  EXPECT_GT(ctl.priced_fraction(), 0.05);
}

// Budget wide enough that every grant admits fully active; observed rates
// then push the priced total past it, forcing arbitration.
AdmissionController make_wide_controller() {
  return AdmissionController(make_symbols(8), control::PairPrice{20'000, 500},
                             AdmissionOptions{0.10, 1000.0});
}

TEST(Admission, ArbitrateChargesTheCostliestSessionNotTheCostliestFunction) {
  AdmissionController ctl = make_wide_controller();
  // s0 holds fn0 + fn1 at 3.2% each (6.4% attributed); s1 holds only fn2,
  // the single most expensive function at 4%.  Total 10.4% > 10%.
  ctl.admit(0, {0, 1});
  ctl.admit(1, {2});
  ctl.update_rate(0, 1600.0);
  ctl.update_rate(1, 1600.0);
  ctl.update_rate(2, 2000.0);
  const ArbitrateResult result = ctl.arbitrate();
  // Pure-price arbitration would flip fn2 and charge the light session;
  // fair-share degrades the heavy session's own most expensive function
  // (fn0 on the 3.2%/3.2% tie, lowest id).
  EXPECT_EQ(result.flipped, (std::vector<image::FunctionId>{0}));
  EXPECT_EQ(result.fairshare_flips, 1u);
  ASSERT_EQ(result.directives.size(), 1u);
  EXPECT_EQ(result.directives[0].pattern, "fn0");
  EXPECT_TRUE(ctl.filtered(0));
  EXPECT_FALSE(ctl.filtered(2));
  EXPECT_LE(ctl.priced_fraction(), 0.10 + 1e-12);
}

TEST(Admission, SharedHoldersSplitTheAttributedCost) {
  AdmissionController ctl = make_wide_controller();
  // fn0 (7%) is shared by s0 and s1 -> 3.5% attributed to each; s2 alone
  // holds fn1 + fn2 (4%), making it the costliest session even though it
  // holds no single function as expensive as fn0.
  ctl.admit(0, {0});
  ctl.admit(1, {0});
  ctl.admit(2, {1, 2});
  ctl.update_rate(0, 3500.0);
  const ArbitrateResult result = ctl.arbitrate();
  ASSERT_FALSE(result.flipped.empty());
  // First victim: s2's most expensive active function, fn1 (lowest id on
  // the 2%/2% tie) -- not the globally priciest fn0.
  EXPECT_EQ(result.flipped.front(), image::FunctionId{1});
  EXPECT_GE(result.fairshare_flips, 1u);
  EXPECT_LE(ctl.priced_fraction(), 0.10 + 1e-12);
}

TEST(Admission, UpdateRateIgnoresNeverInstalledFunctions) {
  AdmissionController ctl = make_controller();
  // A stale rate report for a function nobody holds (e.g. its last holder
  // detached while the report was in flight) must not seed pricing state.
  ctl.update_rate(5, 50'000.0);
  ctl.update_rate(999, 50'000.0);  // out of range entirely
  EXPECT_EQ(ctl.rate_updates_ignored(), 2u);
  // A later grant prices fn5 at the default rate, not the stale report.
  const AdmitResult result = ctl.admit(0, {5});
  EXPECT_EQ(result.decision, AdmitDecision::kAdmitted);
  EXPECT_NEAR(result.projected_fraction, 0.02, 1e-12);
  // Held functions accept updates as before.
  ctl.update_rate(5, 2000.0);
  EXPECT_EQ(ctl.rate_updates_ignored(), 2u);
  EXPECT_NEAR(ctl.priced_fraction(), 0.04, 1e-12);
}

TEST(Admission, ReplayReconcilesFilterIntent) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});
  ctl.admit(1, {2});  // fn2 filtered
  EXPECT_TRUE(ctl.filtered(2));
  // A session's own confsync reactivated fn2 at the safe point; replay
  // mirrors the applied program, so the priced state follows the image.
  ctl.replay({{/*activate=*/true, "fn2"}});
  EXPECT_FALSE(ctl.filtered(2));
  // And arbitration restores the invariant deterministically.
  const ArbitrateResult result = ctl.arbitrate();
  EXPECT_FALSE(result.flipped.empty());
  EXPECT_LE(ctl.priced_fraction(), 0.05 + 1e-12);
}

TEST(Admission, ReplayIgnoresUnheldFunctions) {
  AdmissionController ctl = make_controller();
  ctl.replay({{/*activate=*/false, "fn5"}});
  EXPECT_FALSE(ctl.filtered(5));  // nobody holds fn5; intent untouched
}

TEST(Admission, RepeatGrantIsIdempotent) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0});
  const AdmitResult repeat = ctl.admit(0, {0, 0});
  EXPECT_EQ(repeat.decision, AdmitDecision::kAdmitted);
  EXPECT_TRUE(repeat.install.empty());
  EXPECT_EQ(ctl.holders(0), 1);
  EXPECT_EQ(ctl.release(0).remove, (std::vector<image::FunctionId>{0}));
}

TEST(Admission, DenialChangesNothing) {
  AdmissionController ctl = make_controller(8, 20'000, 20'000);
  ctl.admit(0, {0, 1});
  const std::uint64_t version = ctl.version();
  const double priced = ctl.priced_fraction();
  EXPECT_EQ(ctl.admit(1, {2, 3}).decision, AdmitDecision::kDenied);
  EXPECT_EQ(ctl.admit(0, {2}).decision, AdmitDecision::kDenied);
  EXPECT_EQ(ctl.version(), version);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ctl.priced_fraction()),
            std::bit_cast<std::uint64_t>(priced));
  // Session 1 never got a grant out of its denial.
  EXPECT_TRUE(ctl.release(1).remove.empty());
}

TEST(Admission, VersionMovesOnlyWithDenialInputs) {
  AdmissionController ctl = make_controller();
  std::uint64_t v = ctl.version();
  ctl.admit(0, {0});  // holder 0 -> 1
  EXPECT_GT(ctl.version(), v);
  v = ctl.version();
  ctl.admit(1, {0});  // 1 -> 2: the priced set is unchanged
  EXPECT_EQ(ctl.version(), v);
  ctl.update_rate(0, 1000.0);  // first observation
  EXPECT_GT(ctl.version(), v);
  v = ctl.version();
  ctl.update_rate(0, 1000.0);  // same rate again
  ctl.update_rate(5, 9000.0);  // nobody holds fn5
  EXPECT_EQ(ctl.version(), v);
  ctl.replay({{/*activate=*/true, "fn0"}});  // already active
  EXPECT_EQ(ctl.version(), v);
  ctl.replay({{/*activate=*/false, "fn0"}});
  EXPECT_GT(ctl.version(), v);
  v = ctl.version();
  EXPECT_TRUE(ctl.release(0).remove.empty());  // 2 -> 1
  EXPECT_EQ(ctl.version(), v);
  EXPECT_EQ(ctl.release(1).remove, (std::vector<image::FunctionId>{0}));  // 1 -> 0
  EXPECT_GT(ctl.version(), v);
}

// Property: version() is an exact epoch for admission decisions.  Random
// admit/release/update_rate/arbitrate/replay sequences; after every
// operation that leaves version() unchanged, the priced total is bitwise
// the same and a panel of probe requests -- from a session that never
// holds anything, evaluated on copies -- gets the same decisions as before.
// A denied admit leaves version() and the priced total untouched.
TEST(Admission, VersionIsAnExactEpochForDecisions) {
  constexpr int kFns = 12;
  constexpr SessionId kProbe = 1000;
  const auto symbols = make_symbols(kFns);
  std::vector<std::vector<image::FunctionId>> panel;
  for (image::FunctionId fn = 0; fn < kFns; ++fn) panel.push_back({fn});
  panel.push_back({0, 1});
  panel.push_back({2, 5, 9});
  panel.push_back({3, 4, 10, 11});
  const auto decisions = [&](const AdmissionController& ctl) {
    std::vector<AdmitDecision> out;
    for (const std::vector<image::FunctionId>& fns : panel) {
      AdmissionController copy = ctl;
      out.push_back(copy.admit(kProbe, fns).decision);
    }
    return out;
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };

  int unchanged = 0;
  int denied = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    AdmissionController ctl(symbols, control::PairPrice{20'000, 2'000},
                            AdmissionOptions{0.05, 1000.0});
    const auto pick = [&] {
      return static_cast<image::FunctionId>(rng.next_below(kFns));
    };
    for (int step = 0; step < 300; ++step) {
      const std::uint64_t version = ctl.version();
      const double priced = ctl.priced_fraction();
      const std::vector<AdmitDecision> before = decisions(ctl);
      const auto session = static_cast<SessionId>(rng.next_below(6));
      switch (rng.next_below(5)) {
        case 0: {
          // Unsorted, sometimes duplicated ids.
          std::vector<image::FunctionId> fns;
          for (std::uint64_t k = 0, n = 1 + rng.next_below(3); k < n; ++k) fns.push_back(pick());
          if (ctl.admit(session, fns).decision == AdmitDecision::kDenied) {
            ++denied;
            ASSERT_EQ(ctl.version(), version);
            ASSERT_EQ(bits(ctl.priced_fraction()), bits(priced));
          }
          break;
        }
        case 1:
          ctl.release(session);
          break;
        case 2: {
          static constexpr double kRates[] = {250.0, 1000.0, 2500.0, 4000.0};
          ctl.update_rate(pick(), kRates[rng.next_below(4)]);
          break;
        }
        case 3:
          ctl.arbitrate();
          break;
        default: {
          vt::FilterProgram program;
          for (std::uint64_t k = 0, n = 1 + rng.next_below(2); k < n; ++k) {
            program.push_back({rng.bernoulli(0.5), "fn" + std::to_string(pick())});
          }
          ctl.replay(program);
          break;
        }
      }
      if (ctl.version() != version) continue;
      ++unchanged;
      ASSERT_EQ(bits(ctl.priced_fraction()), bits(priced)) << "seed " << seed << " step " << step;
      ASSERT_EQ(decisions(ctl), before) << "seed " << seed << " step " << step;
    }
  }
  // The walk exercised both sides of the property.
  EXPECT_GT(unchanged, 1000);
  EXPECT_GT(denied, 100);
}

}  // namespace
}  // namespace dyntrace::service
