// Instrumentation snippets: the code fragments a dynamic instrumenter
// inserts at probe points (Figure 1 of the paper).
//
// A snippet is a small immutable AST.  Leaves either call into an
// instrumentation library ("VT_begin", "MPI_Barrier", ...), touch process
// memory (flags used for spin waits), or send a callback message to the
// instrumenter (DPCL_callback).  The initialization snippet of Figure 6 is
//     seq({ call("MPI_Barrier"), callback("init-done"),
//           spin_until("dynvt_spin", 0), call("MPI_Barrier") })
//
// Execution semantics live in the proc layer (snippets can block, so
// evaluation is a coroutine); this module only defines structure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dyntrace::image {

class Snippet;
using SnippetPtr = std::shared_ptr<const Snippet>;

/// Do nothing (useful as a placeholder in tests).
struct NoOp {};

/// The library entry points every process links: the VT API and the MPI
/// wrapper snippets call.  Each process's library registry keeps entry `e`
/// in slot `e`, so a call site resolved to an entry when it is built
/// reaches the function by index, with no name lookup per call.
enum class LibEntry : std::uint8_t {
  kVtInit,
  kVtBegin,
  kVtEnd,
  kVtTraceoff,
  kVtTraceon,
  kVtFinalize,
  kVtConfsync,
  kMpiBarrier,
  kCustom,  ///< any other name: a process resolves it by name
};
inline constexpr std::size_t kLibEntryCount = static_cast<std::size_t>(LibEntry::kCustom);

/// The linked name of an entry ("VT_begin"); "" for kCustom.
const char* to_string(LibEntry entry);
/// The entry `name` links to, or kCustom.
LibEntry lib_entry(std::string_view name);

/// Call an instrumentation-library entry point with integer arguments.
struct CallLibOp {
  CallLibOp(std::string function_name, std::vector<std::int64_t> call_args)
      : function(std::move(function_name)), args(std::move(call_args)),
        entry(lib_entry(function)) {}

  std::string function;
  std::vector<std::int64_t> args;
  LibEntry entry;  ///< resolved from `function` at construction
};

/// Execute children in order.
struct SequenceOp {
  std::vector<SnippetPtr> items;
};

/// Store `value` to a named flag in process memory.
struct SetFlagOp {
  std::string flag;
  std::int64_t value = 0;
};

/// Spin until the named flag equals `value` (DYNVT_spin of Figure 6).
struct SpinUntilOp {
  std::string flag;
  std::int64_t value = 0;
};

/// Send an asynchronous message to the attached instrumenter
/// (DPCL_callback of Figure 6).
struct CallbackOp {
  std::string tag;
};

class Snippet {
 public:
  using Node = std::variant<NoOp, CallLibOp, SequenceOp, SetFlagOp, SpinUntilOp, CallbackOp>;

  explicit Snippet(Node node) : node_(std::move(node)) {}

  const Node& node() const { return node_; }

  /// Number of primitive (leaf) operations; a proxy for snippet size used
  /// when charging patch time per probe.
  int primitive_count() const;

  /// Debug/trace rendering, e.g. "seq(call VT_begin(7), set dynvt_spin=1)".
  std::string to_string() const;

 private:
  Node node_;
};

/// Builders.
namespace snippet {

SnippetPtr noop();
SnippetPtr call(std::string function, std::vector<std::int64_t> args = {});
SnippetPtr seq(std::vector<SnippetPtr> items);
SnippetPtr set_flag(std::string flag, std::int64_t value);
SnippetPtr spin_until(std::string flag, std::int64_t value);
SnippetPtr callback(std::string tag);

}  // namespace snippet

}  // namespace dyntrace::image
