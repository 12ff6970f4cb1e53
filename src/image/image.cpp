#include "image/image.hpp"

#include <algorithm>
#include <utility>

#include "support/common.hpp"

namespace dyntrace::image {

namespace {

/// The mini-trampolines of (fn, where) within [begin, end), a range sorted
/// by (fn, where).
template <typename It>
std::pair<It, It> point_range(It begin, It end, FunctionId fn, ProbeWhere where) {
  const std::pair want(fn, where);
  const It lo = std::partition_point(begin, end, [&](const InstalledProbe& p) {
    return std::pair(p.fn, p.where) < want;
  });
  const It hi = std::partition_point(
      lo, end, [&](const InstalledProbe& p) { return p.fn == fn && p.where == where; });
  return {lo, hi};
}

/// Active mini-trampolines one point may hold: ProbeSummary counts them in
/// 16 bits.
constexpr std::uint16_t kMaxActiveMinis = UINT16_MAX;

}  // namespace

SnippetSnapshot::SnippetSnapshot(ProbePoint point, std::size_t active) {
  many_.reserve(active);
  for (const auto& probe : point.minis) {
    if (probe.active) many_.push_back(probe.snippet.get());
  }
}

ProgramImage::ProgramImage(std::shared_ptr<const SymbolTable> symbols)
    : symbols_(std::move(symbols)) {
  DT_ASSERT(symbols_ != nullptr);
  summary_.resize(symbols_->size());
}

void ProgramImage::set_static_instrumented(FunctionId fn, bool on) {
  DT_ASSERT(fn < summary_.size());
  summary_[fn].static_instrumented = on;
}

void ProgramImage::refresh_summary(FunctionId fn, ProbeWhere where) {
  const ProbePoint p = probe_point(fn, where);
  std::uint16_t active = 0;
  const Snippet* last_active = nullptr;
  for (const auto& probe : p.minis) {
    if (!probe.active) continue;
    ++active;  // callers keep it within kMaxActiveMinis
    last_active = probe.snippet.get();
  }
  const auto w = static_cast<std::size_t>(where);
  ProbeSummary& s = summary_[fn];
  s.active_minis[w] = active;
  s.sole_active[w] = active == 1 ? last_active : nullptr;
  s.base_trampoline[w] = p.has_base_trampoline();
}

ProbeHandle ProgramImage::install_probe(FunctionId fn, ProbeWhere where, SnippetPtr snippet,
                                        bool active) {
  DT_ASSERT(snippet != nullptr, "cannot install a null snippet");
  const auto w = static_cast<std::size_t>(where);
  DT_ASSERT(fn < summary_.size(), "function id out of range");
  ProbeSummary& s = summary_[fn];
  DT_EXPECT(!active || s.active_minis[w] < kMaxActiveMinis, "function ", fn, ": too many probes");
  // The point's summary changes by one mini, so it is updated in place.
  if (active) {
    ++s.active_minis[w];
    s.sole_active[w] = s.active_minis[w] == 1 ? snippet.get() : nullptr;
  }
  s.base_trampoline[w] = true;
  const ProbeHandle handle{next_handle_++};
  const auto range = point_range(probes_.begin(), probes_.end(), fn, where);
  probes_.insert(range.second, InstalledProbe{handle, std::move(snippet), fn, where, active});
  ++patch_epoch_;
  return handle;
}

std::vector<InstalledProbe>::iterator ProgramImage::find_probe(ProbeHandle handle) {
  return std::find_if(probes_.begin(), probes_.end(),
                      [&](const InstalledProbe& p) { return p.handle == handle; });
}

bool ProgramImage::remove_probe(ProbeHandle handle) {
  const auto it = find_probe(handle);
  if (it == probes_.end()) return false;
  const FunctionId fn = it->fn;
  const ProbeWhere where = it->where;
  retire(std::move(it->snippet));
  probes_.erase(it);
  refresh_summary(fn, where);
  ++patch_epoch_;
  return true;
}

std::size_t ProgramImage::remove_probes(FunctionId fn, ProbeWhere where) {
  DT_ASSERT(fn < summary_.size(), "function id out of range");
  const auto [lo, hi] = point_range(probes_.begin(), probes_.end(), fn, where);
  const auto removed = static_cast<std::size_t>(hi - lo);
  for (auto it = lo; it != hi; ++it) retire(std::move(it->snippet));
  probes_.erase(lo, hi);
  refresh_summary(fn, where);
  patch_epoch_ += removed;
  return removed;
}

bool ProgramImage::set_probe_active(ProbeHandle handle, bool active) {
  const auto it = find_probe(handle);
  if (it == probes_.end()) return false;
  if (it->active != active) {
    const ProbeSummary& s = summary_[it->fn];
    DT_EXPECT(!active || s.active_minis[static_cast<std::size_t>(it->where)] < kMaxActiveMinis,
              "function ", it->fn, ": too many probes");
    it->active = active;
    refresh_summary(it->fn, it->where);
    ++patch_epoch_;
  }
  return true;
}

ProbePoint ProgramImage::probe_point(FunctionId fn, ProbeWhere where) const {
  DT_ASSERT(fn < summary_.size(), "function id out of range");
  const auto [lo, hi] = point_range(probes_.begin(), probes_.end(), fn, where);
  return ProbePoint{std::span<const InstalledProbe>(lo, hi)};
}

}  // namespace dyntrace::image
