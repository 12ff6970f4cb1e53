// The mutable program image: static instrumentation marks plus the dynamic
// patching state (base trampolines and mini-trampoline chains) per probe
// point.
//
// MPI applications: every process owns a *copy* of the template image (one
// address space each), so dynprof must patch P images.  OpenMP
// applications: all threads share a single image (why Figure 9 is flat for
// Umt98).  ProgramImage is a value type to make both models trivial.
//
// Layout.  Every function has a 24-byte ProbeSummary, which is all a call
// through an unpatched function reads, and through a point with one active
// snippet, the usual patched case, too.  The installed mini-trampolines of
// all points live in one vector sorted by (function, where), in install
// order within a point, so a point's chain is a contiguous range and an
// image that patches few functions pays for few.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "image/snippet.hpp"
#include "image/symbols.hpp"
#include "machine/spec.hpp"
#include "sim/time.hpp"
#include "support/common.hpp"

namespace dyntrace::image {

enum class ProbeWhere : std::uint8_t { kEntry = 0, kExit = 1 };

/// Identifies one installed mini-trampoline within one image.
struct ProbeHandle {
  std::uint64_t value = 0;  ///< 0 = invalid
  explicit operator bool() const { return value != 0; }
  friend bool operator==(ProbeHandle a, ProbeHandle b) { return a.value == b.value; }
};

struct InstalledProbe {
  ProbeHandle handle;
  SnippetPtr snippet;
  FunctionId fn = kInvalidFunction;
  ProbeWhere where = ProbeWhere::kEntry;
  bool active = true;
};

/// One probe point (a function entry or exit), as a view of its
/// mini-trampolines in install order; valid until the image next changes.
/// The base trampoline exists while any mini-trampoline is installed,
/// active or not.
struct ProbePoint {
  std::span<const InstalledProbe> minis;
  bool has_base_trampoline() const { return !minis.empty(); }
};

/// The active snippets of one probe point, taken at one instant in install
/// order by ProgramImage::active_snippets.  The snapshot points into the
/// image: a snippet removed while a snapshot runs it (it may block, and
/// DPCL may patch the point meanwhile) is retired into the image rather
/// than freed.  A point with at most one active snippet, the usual case,
/// is taken without touching the heap.
class SnippetSnapshot {
 public:
  /// The snapshot of a point whose only active snippet is `sole` (null:
  /// none active).
  explicit SnippetSnapshot(const Snippet* sole) : one_(sole) {}
  /// The snapshot of `point`, which has `active` (> 1) active snippets.
  SnippetSnapshot(ProbePoint point, std::size_t active);

  const Snippet* const* begin() const { return one_ ? &one_ : many_.data(); }
  const Snippet* const* end() const {
    return one_ ? &one_ + 1 : many_.data() + many_.size();
  }
  std::size_t size() const { return static_cast<std::size_t>(end() - begin()); }
  bool empty() const { return begin() == end(); }
  const Snippet* operator[](std::size_t i) const { return begin()[i]; }

 private:
  const Snippet* one_ = nullptr;
  std::vector<const Snippet*> many_;
};

/// What a call through one function pays for, kept current by every
/// mutation so the simulated call path reads these bytes instead of the
/// probe lists.  Arrays are indexed by ProbeWhere.
struct ProbeSummary {
  /// The point's active snippet when it has exactly one, else null.
  const Snippet* sole_active[2] = {nullptr, nullptr};
  std::uint16_t active_minis[2] = {0, 0};
  bool base_trampoline[2] = {false, false};
  bool static_instrumented = false;
};

class ProgramImage {
 public:
  explicit ProgramImage(std::shared_ptr<const SymbolTable> symbols);

  const SymbolTable& symbols() const { return *symbols_; }
  std::shared_ptr<const SymbolTable> symbols_ptr() const { return symbols_; }

  // --- static instrumentation (written by the Guide compiler) -------------

  /// Mark a function as carrying compiled-in VT_begin/VT_end calls.
  void set_static_instrumented(FunctionId fn, bool on);
  bool static_instrumented(FunctionId fn) const { return summary(fn).static_instrumented; }

  // --- dynamic patching (performed by DPCL daemons) ------------------------

  /// Install a mini-trampoline at a probe point.  Creates the base
  /// trampoline on first install.  Returns a handle unique within this
  /// image.  Fails closed past 65535 active mini-trampolines at one point.
  ProbeHandle install_probe(FunctionId fn, ProbeWhere where, SnippetPtr snippet,
                            bool active = true);

  /// Remove a mini-trampoline.  Returns false if the handle is unknown
  /// (e.g. already removed).
  bool remove_probe(ProbeHandle handle);

  /// Remove every mini-trampoline of one probe point (and so its base
  /// trampoline).  Returns how many were removed.
  std::size_t remove_probes(FunctionId fn, ProbeWhere where);

  /// Activate / deactivate without removing.  Returns false if unknown.
  bool set_probe_active(ProbeHandle handle, bool active);

  ProbePoint probe_point(FunctionId fn, ProbeWhere where) const;

  /// The function's probe summary.  Readers touch probe_point().minis only
  /// where summary().base_trampoline says a probe point is patched.
  const ProbeSummary& summary(FunctionId fn) const {
    DT_ASSERT(fn < summary_.size(), "function id out of range");
    return summary_[fn];
  }

  /// Snippets to execute at a probe point, in install order (active only).
  /// Call done_with_snippets() once they have run: until every snapshot
  /// taken is done, a snippet removed from any point is retired into the
  /// image instead of freed, so a running snapshot never dangles.  (A
  /// snapshot abandoned mid-run, by teardown or an exception, only keeps
  /// the retired snippets for the image's lifetime.)
  SnippetSnapshot active_snippets(FunctionId fn, ProbeWhere where) {
    ++snapshots_running_;
    const ProbeSummary& s = summary(fn);
    const auto w = static_cast<std::size_t>(where);
    if (s.active_minis[w] <= 1) return SnippetSnapshot(s.sole_active[w]);
    return SnippetSnapshot(probe_point(fn, where), s.active_minis[w]);
  }
  void done_with_snippets() {
    DT_ASSERT(snapshots_running_ > 0, "done_with_snippets without a snapshot");
    if (--snapshots_running_ == 0) retired_.clear();
  }

  /// Structural trampoline cost of passing this probe point (jump, register
  /// save/restore, relocated instruction, one chain dispatch per active
  /// mini) -- excludes the cost of snippet bodies, which is charged by the
  /// library functions they call.  Zero when no base trampoline exists:
  /// an unpatched probe point is free, the paper's central premise.
  sim::TimeNs trampoline_overhead(FunctionId fn, ProbeWhere where,
                                  const machine::CostModel& costs) const {
    const ProbeSummary& s = summary(fn);
    const auto w = static_cast<std::size_t>(where);
    if (!s.base_trampoline[w]) return 0;
    return costs.tramp_jump + costs.tramp_save_regs + costs.tramp_restore_regs +
           costs.tramp_relocated_insn +
           static_cast<sim::TimeNs>(s.active_minis[w]) * costs.tramp_mini_dispatch;
  }

  /// Bumped on every successful mutation; lets callers detect patching.
  std::uint64_t patch_epoch() const { return patch_epoch_; }

 private:
  /// The probe with this handle, or probes_.end().
  std::vector<InstalledProbe>::iterator find_probe(ProbeHandle handle);
  /// Recompute the summary of one probe point from its minis.
  void refresh_summary(FunctionId fn, ProbeWhere where);
  /// Keep a removed snippet alive while any snapshot may be running it.
  void retire(SnippetPtr snippet) {
    if (snapshots_running_ > 0) retired_.push_back(std::move(snippet));
  }

  std::shared_ptr<const SymbolTable> symbols_;
  std::vector<ProbeSummary> summary_;  ///< one per function
  /// Every installed mini-trampoline, sorted by (fn, where), install order
  /// within a point.
  std::vector<InstalledProbe> probes_;
  /// Snippets removed while a snapshot was running (one may be blocked in
  /// a spin wait, say); dropped when the last running snapshot is done.
  std::vector<SnippetPtr> retired_;
  std::uint32_t snapshots_running_ = 0;
  std::uint64_t next_handle_ = 1;
  std::uint64_t patch_epoch_ = 0;
};

}  // namespace dyntrace::image
