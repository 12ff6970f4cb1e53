#include "control/pricing.hpp"

#include <variant>

#include "image/image.hpp"
#include "support/common.hpp"

namespace dyntrace::control {

namespace {

/// VT_begin/VT_end call sites inside a snippet body.
int vt_call_count(const image::Snippet& snippet) {
  struct Visitor {
    int operator()(const image::NoOp&) const { return 0; }
    int operator()(const image::CallLibOp& op) const {
      return op.entry == image::LibEntry::kVtBegin || op.entry == image::LibEntry::kVtEnd ? 1 : 0;
    }
    int operator()(const image::SequenceOp& op) const {
      int n = 0;
      for (const auto& item : op.items) n += vt_call_count(*item);
      return n;
    }
    int operator()(const image::SetFlagOp&) const { return 0; }
    int operator()(const image::SpinUntilOp&) const { return 0; }
    int operator()(const image::CallbackOp&) const { return 0; }
  };
  return std::visit(Visitor{}, snippet.node());
}

PairPrice price_from(sim::TimeNs structural, int vt_calls, const vt::VtLib& vt,
                     const machine::CostModel& c) {
  PairPrice price;
  price.active = structural + vt_calls * vt.active_call_cost();
  price.residual = structural + vt_calls * (c.vt_call_overhead + c.vt_filter_lookup);
  return price;
}

}  // namespace

PairPrice pair_price(const vt::VtLib& vt, image::FunctionId fn) {
  const machine::CostModel& c = vt.process().cluster().spec().costs;
  const image::ProgramImage& img = vt.process().image();
  const image::ProbeSummary& probes = img.summary(fn);
  sim::TimeNs structural = 0;
  int vt_calls = 0;
  for (auto where : {image::ProbeWhere::kEntry, image::ProbeWhere::kExit}) {
    if (!probes.base_trampoline[static_cast<std::size_t>(where)]) continue;
    structural += img.trampoline_overhead(fn, where, c);
    for (const auto& probe : img.probe_point(fn, where).minis) {
      if (probe.active) vt_calls += vt_call_count(*probe.snippet);
    }
  }
  if (probes.static_instrumented) vt_calls += 2;
  return price_from(structural, vt_calls, vt, c);
}

PairPrice probe_pair_price(const vt::VtLib& vt) {
  const machine::CostModel& c = vt.process().cluster().spec().costs;
  // One side of the standard insert: a base trampoline with one active
  // mini-trampoline dispatching a single VT call (see
  // image::ProgramImage::trampoline_overhead for the as-built formula this
  // mirrors).
  const sim::TimeNs side = c.tramp_jump + c.tramp_save_regs + c.tramp_restore_regs +
                           c.tramp_relocated_insn + c.tramp_mini_dispatch;
  return price_from(2 * side, /*vt_calls=*/2, vt, c);
}

double overhead_fraction(sim::TimeNs price, double pairs_per_sec) {
  return static_cast<double>(price) * pairs_per_sec / 1e9;
}

ProbeSetQuote quote_probe_set(const vt::VtLib& vt, const std::vector<QuoteLine>& lines) {
  const PairPrice hypothetical = probe_pair_price(vt);
  ProbeSetQuote quote;
  for (const QuoteLine& line : lines) {
    PairPrice price = pair_price(vt, line.fn);
    if (price.active == 0) price = hypothetical;  // untouched: price the standard insert
    quote.active_fraction += overhead_fraction(price.active, line.pairs_per_sec);
    quote.residual_fraction += overhead_fraction(price.residual, line.pairs_per_sec);
  }
  return quote;
}

}  // namespace dyntrace::control
