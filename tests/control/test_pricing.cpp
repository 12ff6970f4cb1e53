// The const pricing API (control/pricing.hpp): as-built vs hypothetical
// pair prices, overhead fractions, and probe-set quotes -- all pure queries
// over an unmodified library.
#include "control/pricing.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "image/image.hpp"
#include "image/snippet.hpp"
#include "proc/job.hpp"
#include "vt/vtlib.hpp"

namespace dyntrace::control {
namespace {

constexpr image::FunctionId kInstrumented = 1;
constexpr image::FunctionId kUntouched = 2;

/// One process with the dynprof probe pair installed on `kInstrumented`
/// and nothing on `kUntouched`; the engine never runs -- pricing is const.
struct PricingHarness {
  PricingHarness() : cluster(engine, machine::ibm_power3_sp()), job(cluster, "pricing") {
    auto symbols = std::make_shared<image::SymbolTable>();
    symbols->add("main", "driver.c");
    symbols->add("instr_fn", "solver.c");
    symbols->add("plain_fn", "solver.c");
    proc::SimProcess& process = job.add_process(image::ProgramImage(symbols), 0, 0);
    process.image().install_probe(
        kInstrumented, image::ProbeWhere::kEntry,
        image::snippet::call("VT_begin", {static_cast<std::int64_t>(kInstrumented)}));
    process.image().install_probe(
        kInstrumented, image::ProbeWhere::kExit,
        image::snippet::call("VT_end", {static_cast<std::int64_t>(kInstrumented)}));
    vt = std::make_unique<vt::VtLib>(process, std::make_shared<vt::TraceStore>(),
                                     vt::VtLib::Options{});
    vt->link();
  }

  sim::Engine engine;
  machine::Cluster cluster;
  proc::ParallelJob job;
  std::unique_ptr<vt::VtLib> vt;
};

TEST(Pricing, InstrumentedPairCostsMoreActiveThanFiltered) {
  PricingHarness h;
  const PairPrice price = pair_price(*h.vt, kInstrumented);
  EXPECT_GT(price.active, 0);
  EXPECT_GT(price.residual, 0);  // trampoline + filter lookup remain
  EXPECT_GT(price.active, price.residual);
}

TEST(Pricing, UntouchedFunctionIsFree) {
  PricingHarness h;
  const PairPrice price = pair_price(*h.vt, kUntouched);
  EXPECT_EQ(price.active, 0);
  EXPECT_EQ(price.residual, 0);
}

TEST(Pricing, HypotheticalPriceMatchesAsBuiltStandardPair) {
  PricingHarness h;
  // kInstrumented carries exactly the standard pair, so the hypothetical
  // quote must agree with the as-built price.
  const PairPrice hypothetical = probe_pair_price(*h.vt);
  const PairPrice as_built = pair_price(*h.vt, kInstrumented);
  EXPECT_EQ(hypothetical.active, as_built.active);
  EXPECT_EQ(hypothetical.residual, as_built.residual);
}

TEST(Pricing, OnlyVtCallsInsideASnippetArePricedAsVtCalls) {
  PricingHarness h;
  // kUntouched gets the same VT_begin/VT_end pair, wrapped in sequences
  // next to snippets that call no VT entry (the Figure-6 init snippet's
  // kinds), plus a mini that is a no-op.
  namespace sn = image::snippet;
  image::ProgramImage& img = h.vt->process().image();
  const auto arg = static_cast<std::int64_t>(kUntouched);
  img.install_probe(kUntouched, image::ProbeWhere::kEntry,
                    sn::seq({sn::set_flag("ready", 1), sn::call("VT_begin", {arg}),
                             sn::callback("init"), sn::call("MPI_Barrier")}));
  img.install_probe(kUntouched, image::ProbeWhere::kEntry, sn::noop());
  img.install_probe(kUntouched, image::ProbeWhere::kExit,
                    sn::seq({sn::spin_until("ready", 1), sn::call("VT_end", {arg})}));

  const machine::CostModel& c = h.cluster.spec().costs;
  auto structural = [&](image::FunctionId fn) {
    return img.trampoline_overhead(fn, image::ProbeWhere::kEntry, c) +
           img.trampoline_overhead(fn, image::ProbeWhere::kExit, c);
  };
  // Two VT calls on each function: what they cost beyond the trampolines
  // is the same, as built and as priced.
  EXPECT_EQ(h.vt->steady_pair_overhead(kUntouched) - structural(kUntouched),
            h.vt->steady_pair_overhead(kInstrumented) - structural(kInstrumented));
  const PairPrice mixed = pair_price(*h.vt, kUntouched);
  const PairPrice standard = pair_price(*h.vt, kInstrumented);
  EXPECT_EQ(mixed.active - structural(kUntouched), standard.active - structural(kInstrumented));
  EXPECT_EQ(mixed.residual - structural(kUntouched),
            standard.residual - structural(kInstrumented));
  EXPECT_GT(structural(kUntouched), structural(kInstrumented));  // one more mini
}

TEST(Pricing, OverheadFractionIsPriceTimesRate) {
  EXPECT_DOUBLE_EQ(overhead_fraction(20'000, 1000.0), 0.02);
  EXPECT_DOUBLE_EQ(overhead_fraction(0, 1e9), 0.0);
  EXPECT_DOUBLE_EQ(overhead_fraction(1'000'000'000, 1.0), 1.0);
}

TEST(Pricing, QuoteSumsLinesAndIsConst) {
  PricingHarness h;
  const PairPrice pair = probe_pair_price(*h.vt);
  const std::vector<QuoteLine> lines{{kInstrumented, 500.0}, {kUntouched, 1500.0}};
  const ProbeSetQuote quote = quote_probe_set(*h.vt, lines);
  EXPECT_DOUBLE_EQ(quote.active_fraction, overhead_fraction(pair.active, 500.0) +
                                              overhead_fraction(pair.active, 1500.0));
  EXPECT_DOUBLE_EQ(quote.residual_fraction, overhead_fraction(pair.residual, 500.0) +
                                                overhead_fraction(pair.residual, 1500.0));
  // Repeat the quote: identical, and the image is untouched.
  const ProbeSetQuote again = quote_probe_set(*h.vt, lines);
  EXPECT_DOUBLE_EQ(again.active_fraction, quote.active_fraction);
  EXPECT_EQ(h.job.process(0).image().installed_probe_count(), 2u);
}

}  // namespace
}  // namespace dyntrace::control
