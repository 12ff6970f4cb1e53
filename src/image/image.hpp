// The mutable program image: static instrumentation marks plus the dynamic
// patching state (base trampolines and mini-trampoline chains) per probe
// point.
//
// MPI applications: every process owns a *copy* of the template image (one
// address space each), so dynprof must patch P images.  OpenMP
// applications: all threads share a single image (why Figure 9 is flat for
// Umt98).  ProgramImage is a value type to make both models trivial.
#pragma once

#include <cstdint>
#include <memory>
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
  bool active = true;
};

/// One probe point (a function entry or exit).  The base trampoline exists
/// while any mini-trampoline is installed, active or not.
struct ProbePoint {
  std::vector<InstalledProbe> minis;
  bool has_base_trampoline() const { return !minis.empty(); }
};

/// The active snippets of one probe point, copied at one instant in
/// install order.  The copy shares ownership, so DPCL may patch the point
/// while a snippet blocks.  A point with one active snippet, the usual
/// case, is copied without touching the heap.
class SnippetSnapshot {
 public:
  SnippetSnapshot(const ProbePoint& point, std::uint32_t active);

  const SnippetPtr* begin() const { return one_ ? &one_ : many_.data(); }
  const SnippetPtr* end() const { return one_ ? &one_ + 1 : many_.data() + many_.size(); }
  std::size_t size() const { return static_cast<std::size_t>(end() - begin()); }
  bool empty() const { return begin() == end(); }
  const SnippetPtr& operator[](std::size_t i) const { return begin()[i]; }

 private:
  SnippetPtr one_;
  std::vector<SnippetPtr> many_;
};

/// What a call through one function pays for, kept current by every
/// mutation so the simulated call path reads a few bytes instead of the
/// probe lists.  Indexed by ProbeWhere.
struct ProbeSummary {
  std::uint32_t active_minis[2] = {0, 0};
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
  std::size_t static_instrumented_count() const;

  // --- dynamic patching (performed by DPCL daemons) ------------------------

  /// Install a mini-trampoline at a probe point.  Creates the base
  /// trampoline on first install.  Returns a handle unique within this
  /// image.
  ProbeHandle install_probe(FunctionId fn, ProbeWhere where, SnippetPtr snippet,
                            bool active = true);

  /// Remove a mini-trampoline.  Returns false if the handle is unknown
  /// (e.g. already removed).
  bool remove_probe(ProbeHandle handle);

  /// Activate / deactivate without removing.  Returns false if unknown.
  bool set_probe_active(ProbeHandle handle, bool active);

  const ProbePoint& probe_point(FunctionId fn, ProbeWhere where) const;

  /// The function's probe summary.  Readers touch probe_point().minis only
  /// where summary().base_trampoline says a probe point is patched.
  const ProbeSummary& summary(FunctionId fn) const {
    DT_ASSERT(fn < summary_.size(), "function id out of range");
    return summary_[fn];
  }

  /// Snippets to execute at a probe point, in install order (active only).
  SnippetSnapshot active_snippets(FunctionId fn, ProbeWhere where) const {
    return SnippetSnapshot(point(fn, where),
                           summary(fn).active_minis[static_cast<std::size_t>(where)]);
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

  // --- accounting -----------------------------------------------------------

  /// Total installed mini-trampolines (active + inactive).
  std::size_t installed_probe_count() const;
  std::size_t active_probe_count() const;

  /// Bumped on every successful mutation; lets callers detect patching.
  std::uint64_t patch_epoch() const { return patch_epoch_; }

 private:
  struct FunctionPatchState {
    ProbePoint points[2];  // indexed by ProbeWhere
  };

  ProbePoint& point(FunctionId fn, ProbeWhere where);
  const ProbePoint& point(FunctionId fn, ProbeWhere where) const;
  InstalledProbe* find_probe(ProbeHandle handle, FunctionId* fn_out, ProbeWhere* where_out);
  /// Recompute the summary of one probe point from its minis.
  void refresh_summary(FunctionId fn, ProbeWhere where);

  std::shared_ptr<const SymbolTable> symbols_;
  std::vector<FunctionPatchState> state_;
  std::vector<ProbeSummary> summary_;  ///< parallel to state_
  std::uint64_t next_handle_ = 1;
  std::uint64_t patch_epoch_ = 0;
};

}  // namespace dyntrace::image
