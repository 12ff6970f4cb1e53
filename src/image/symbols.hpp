// Symbol table of a simulated program image.
//
// Functions are the instrumentation granularity of the paper (subroutine
// entry/exit probes), so the symbol table is a flat function list with
// name lookup and glob matching (used by insert-file command files and
// filter programs).  Both are setup-time operations: the simulated call
// path works on FunctionIds only.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dyntrace::image {

using FunctionId = std::uint32_t;
inline constexpr FunctionId kInvalidFunction = 0xffffffffu;

struct FunctionInfo {
  FunctionId id = kInvalidFunction;
  std::string name;
  std::string module;  ///< source file / library the function lives in
};

class SymbolTable {
 public:
  /// Add a function; names must be unique.  Returns the new id (dense,
  /// starting at 0).
  FunctionId add(std::string name, std::string module = "");

  const FunctionInfo* find(std::string_view name) const;
  const FunctionInfo& at(FunctionId id) const;
  bool contains(std::string_view name) const { return find(name) != nullptr; }

  std::size_t size() const { return functions_.size(); }
  const std::vector<FunctionInfo>& all() const { return functions_; }

  /// Ids of all functions whose name matches the glob pattern, in id order.
  /// A pattern without '*' or '?' is an exact name and goes through the
  /// hash table; only wildcard patterns scan the symbols.
  std::vector<FunctionId> match(std::string_view glob) const;

 private:
  /// Transparent hashing, so string_view lookups allocate nothing.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<FunctionInfo> functions_;
  std::unordered_map<std::string, FunctionId, NameHash, std::equal_to<>> by_name_;
};

}  // namespace dyntrace::image
