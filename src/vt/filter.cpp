#include "vt/filter.hpp"

#include "support/common.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::vt {

FilterProgram parse_filter(const ConfigFile& config) {
  FilterProgram program;
  for (const auto& entry : config.section("filter")) {
    if (entry.key == "deactivate") {
      program.push_back(FilterDirective{false, entry.value});
    } else if (entry.key == "activate") {
      program.push_back(FilterDirective{true, entry.value});
    } else {
      fail(config.origin(), ":", entry.line, ": unknown filter directive '", entry.key,
           "' (expected activate/deactivate)");
    }
  }
  return program;
}

std::int64_t serialized_size(const FilterProgram& program) {
  std::int64_t bytes = 8;  // header
  for (const auto& d : program) {
    bytes += 2 + static_cast<std::int64_t>(d.pattern.size());
  }
  return bytes;
}

CompiledFilter::CompiledFilter(const image::SymbolTable& symbols, const FilterProgram& program)
    : delta_(symbols.size(), FilterAction::kUntouched), empty_(program.empty()) {
  telemetry::Registry& reg = telemetry::current();
  reg.add(reg.metrics().vt_filter_compiles);
  for (const auto& directive : program) {
    const FilterAction action =
        directive.activate ? FilterAction::kActivate : FilterAction::kDeactivate;
    for (const image::FunctionId fn : symbols.match(directive.pattern)) delta_[fn] = action;
  }
}

std::shared_ptr<const CompiledFilter> compile_filter(const image::SymbolTable& symbols,
                                                     const FilterProgram& program) {
  return std::make_shared<const CompiledFilter>(symbols, program);
}

FilterTable::FilterTable(const image::SymbolTable& symbols, const FilterProgram& program) {
  apply(CompiledFilter(symbols, program));
}

void FilterTable::apply(const CompiledFilter& program) {
  const std::vector<FilterAction>& delta = program.delta();
  if (deactivated_.size() < delta.size()) deactivated_.resize(delta.size(), 0);
  if (!program.empty()) enabled_ = true;
  for (std::size_t fn = 0; fn < delta.size(); ++fn) {
    if (delta[fn] != FilterAction::kUntouched) {
      deactivated_[fn] = delta[fn] == FilterAction::kDeactivate ? 1 : 0;
    }
  }
}

std::size_t FilterTable::deactivated_count() const {
  std::size_t n = 0;
  for (const auto d : deactivated_) n += d;
  return n;
}

}  // namespace dyntrace::vt
