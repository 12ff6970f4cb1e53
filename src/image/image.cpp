#include "image/image.hpp"

#include "support/common.hpp"

namespace dyntrace::image {

SnippetSnapshot::SnippetSnapshot(const ProbePoint& point, std::uint32_t active) {
  if (active == 0) return;
  if (active > 1) many_.reserve(active);
  for (const auto& probe : point.minis) {
    if (!probe.active) continue;
    if (active == 1) {
      one_ = probe.snippet;
      return;
    }
    many_.push_back(probe.snippet);
  }
}

ProgramImage::ProgramImage(std::shared_ptr<const SymbolTable> symbols)
    : symbols_(std::move(symbols)) {
  DT_ASSERT(symbols_ != nullptr);
  state_.resize(symbols_->size());
  summary_.resize(symbols_->size());
}

void ProgramImage::set_static_instrumented(FunctionId fn, bool on) {
  DT_ASSERT(fn < summary_.size());
  summary_[fn].static_instrumented = on;
}

std::size_t ProgramImage::static_instrumented_count() const {
  std::size_t n = 0;
  for (const auto& s : summary_) n += s.static_instrumented ? 1 : 0;
  return n;
}

void ProgramImage::refresh_summary(FunctionId fn, ProbeWhere where) {
  const auto w = static_cast<std::size_t>(where);
  const ProbePoint& p = point(fn, where);
  std::uint32_t active = 0;
  for (const auto& probe : p.minis) active += probe.active ? 1 : 0;
  summary_[fn].active_minis[w] = active;
  summary_[fn].base_trampoline[w] = p.has_base_trampoline();
}

ProbePoint& ProgramImage::point(FunctionId fn, ProbeWhere where) {
  DT_ASSERT(fn < state_.size(), "function id out of range");
  return state_[fn].points[static_cast<int>(where)];
}

const ProbePoint& ProgramImage::point(FunctionId fn, ProbeWhere where) const {
  DT_ASSERT(fn < state_.size(), "function id out of range");
  return state_[fn].points[static_cast<int>(where)];
}

ProbeHandle ProgramImage::install_probe(FunctionId fn, ProbeWhere where, SnippetPtr snippet,
                                        bool active) {
  DT_ASSERT(snippet != nullptr, "cannot install a null snippet");
  ProbePoint& p = point(fn, where);
  const ProbeHandle handle{next_handle_++};
  p.minis.push_back(InstalledProbe{handle, std::move(snippet), active});
  refresh_summary(fn, where);
  ++patch_epoch_;
  return handle;
}

InstalledProbe* ProgramImage::find_probe(ProbeHandle handle, FunctionId* fn_out,
                                         ProbeWhere* where_out) {
  for (FunctionId fn = 0; fn < state_.size(); ++fn) {
    for (int w = 0; w < 2; ++w) {
      for (auto& probe : state_[fn].points[w].minis) {
        if (probe.handle == handle) {
          if (fn_out) *fn_out = fn;
          if (where_out) *where_out = static_cast<ProbeWhere>(w);
          return &probe;
        }
      }
    }
  }
  return nullptr;
}

bool ProgramImage::remove_probe(ProbeHandle handle) {
  FunctionId fn = kInvalidFunction;
  ProbeWhere where = ProbeWhere::kEntry;
  const InstalledProbe* probe = find_probe(handle, &fn, &where);
  if (probe == nullptr) return false;
  auto& minis = point(fn, where).minis;
  minis.erase(minis.begin() + (probe - minis.data()));
  refresh_summary(fn, where);
  ++patch_epoch_;
  return true;
}

bool ProgramImage::set_probe_active(ProbeHandle handle, bool active) {
  FunctionId fn = kInvalidFunction;
  ProbeWhere where = ProbeWhere::kEntry;
  InstalledProbe* probe = find_probe(handle, &fn, &where);
  if (probe == nullptr) return false;
  if (probe->active != active) {
    probe->active = active;
    refresh_summary(fn, where);
    ++patch_epoch_;
  }
  return true;
}

const ProbePoint& ProgramImage::probe_point(FunctionId fn, ProbeWhere where) const {
  return point(fn, where);
}

std::size_t ProgramImage::installed_probe_count() const {
  std::size_t n = 0;
  for (const auto& s : state_) {
    n += s.points[0].minis.size() + s.points[1].minis.size();
  }
  return n;
}

std::size_t ProgramImage::active_probe_count() const {
  std::size_t n = 0;
  for (const auto& s : state_) {
    for (const auto& p : s.points) {
      for (const auto& probe : p.minis) n += probe.active ? 1 : 0;
    }
  }
  return n;
}

}  // namespace dyntrace::image
