// The Vampirtrace symbol deactivation table.
//
// At VT_init the configuration file is read and a table of deactivated
// symbols is built; every VT_begin / VT_end performs a lookup into this
// table and bails out early when the current function is off (paper §4.2).
// Dynamic control of instrumentation (§5) re-applies directives to this
// table at safe points via VT_confsync.
//
// Directive patterns meet symbol names in exactly one place: compiling a
// FilterProgram against a SymbolTable.  The result is a per-function delta
// that every rank applies by id, so a job compiles its config file once,
// not once per rank, and VT_confsync does no per-rank matching.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "image/symbols.hpp"

namespace dyntrace::vt {

/// One activation/deactivation directive ("deactivate = hypre_*").
struct FilterDirective {
  bool activate = false;
  std::string pattern;
};

/// An ordered directive list; later directives win.
using FilterProgram = std::vector<FilterDirective>;

/// Serialized size in bytes (what VT_confsync broadcasts).
std::int64_t serialized_size(const FilterProgram& program);

/// What a compiled program does to one function.
enum class FilterAction : std::uint8_t { kUntouched = 0, kActivate = 1, kDeactivate = 2 };

/// A FilterProgram resolved against one symbol table: for every function,
/// the action of the last directive that matched it.  Exact names go
/// through the symbol hash table; only patterns with '*' or '?' scan.
class CompiledFilter {
 public:
  CompiledFilter() = default;
  CompiledFilter(const image::SymbolTable& symbols, const FilterProgram& program);

  /// Indexed by FunctionId; one entry per symbol.
  const std::vector<FilterAction>& delta() const { return delta_; }
  /// True when the source program had no directives: applying it changes
  /// nothing and leaves a table disabled.
  bool empty() const { return empty_; }

 private:
  std::vector<FilterAction> delta_;
  bool empty_ = true;
};

/// Compile once and share: a job's ranks all apply the same delta.
std::shared_ptr<const CompiledFilter> compile_filter(const image::SymbolTable& symbols,
                                                     const FilterProgram& program);

class FilterTable {
 public:
  /// All symbols start active.
  FilterTable() = default;
  /// Shorthand for a default table with `CompiledFilter(symbols, program)`
  /// applied.
  FilterTable(const image::SymbolTable& symbols, const FilterProgram& program);

  /// Apply a compiled program (VT_init's config file, or a VT_confsync
  /// reconfiguration): touched functions take the program's action.
  void apply(const CompiledFilter& program);

  /// The fast-path lookup of VT_begin/VT_end.
  bool deactivated(image::FunctionId fn) const {
    return fn < deactivated_.size() && deactivated_[fn] != 0;
  }

  /// True when any directive was ever applied -- an empty table costs no
  /// lookup (the Full policy reads no config file).
  bool enabled() const { return enabled_; }

 private:
  std::vector<std::uint8_t> deactivated_;
  bool enabled_ = false;
};

}  // namespace dyntrace::vt
