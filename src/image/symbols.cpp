#include "image/symbols.hpp"

#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::image {

FunctionId SymbolTable::add(std::string name, std::string module) {
  DT_EXPECT(!name.empty(), "function name cannot be empty");
  DT_EXPECT(by_name_.find(name) == by_name_.end(), "duplicate function name '", name, "'");
  const auto id = static_cast<FunctionId>(functions_.size());
  by_name_.emplace(name, id);
  functions_.push_back(FunctionInfo{id, std::move(name), std::move(module)});
  return id;
}

const FunctionInfo* SymbolTable::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &functions_[it->second];
}

const FunctionInfo& SymbolTable::at(FunctionId id) const {
  DT_ASSERT(id < functions_.size(), "function id ", id, " out of range");
  return functions_[id];
}

std::vector<FunctionId> SymbolTable::match(std::string_view glob) const {
  std::vector<FunctionId> out;
  if (glob.find_first_of("*?") == std::string_view::npos) {
    if (const FunctionInfo* f = find(glob)) out.push_back(f->id);
    return out;
  }
  for (const auto& f : functions_) {
    if (str::glob_match(glob, f.name)) out.push_back(f.id);
  }
  return out;
}

}  // namespace dyntrace::image
