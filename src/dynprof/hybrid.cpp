#include "dynprof/hybrid.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "guide/compiler.hpp"
#include "support/common.hpp"

namespace dyntrace::dynprof {

HybridController::HybridController(Launch& launch, DynprofTool& tool, Options options)
    : launch_(launch), tool_(tool), options_(options) {
  DT_EXPECT(options.top_k >= 1, "hybrid controller needs top_k >= 1");
  DT_EXPECT(options.sample_window > 0 && options.detail_window > 0,
            "hybrid windows must be positive");
}

void HybridController::start() {
  launch_.engine().spawn(run(), "hybrid.controller");
}

sim::Coro<void> HybridController::run() {
  sim::Engine& engine = launch_.engine();

  // Phase 0: wait until every rank is initialized and released.
  co_await launch_.init_complete_trigger().wait();

  // Phase 1: sample every process over the window.
  sampling::Sampler::Options sampler_options;
  sampler_options.interval = options_.sampling_interval;
  sampler_options.per_sample_cost = options_.per_sample_cost;
  for (const auto& process : launch_.job().processes()) {
    samplers_.push_back(std::make_unique<sampling::Sampler>(*process, sampler_options));
    samplers_.back()->start();
  }
  co_await engine.sleep(options_.sample_window);
  for (auto& sampler : samplers_) {
    sampler->stop();
    report_.total_samples += sampler->total_samples();
  }

  // Phase 2: merge histograms and pick the top-k user functions.
  std::map<image::FunctionId, std::uint64_t> merged;
  for (const auto& sampler : samplers_) {
    for (const auto& [fn, hits] : sampler->histogram()) {
      if (fn != image::kInvalidFunction) merged[fn] += hits;
    }
  }
  const image::SymbolTable& symbols = *launch_.options().app->symbols;
  std::vector<std::pair<std::uint64_t, image::FunctionId>> ranked;
  for (const auto& [fn, hits] : merged) {
    const auto& info = symbols.at(fn);
    if (info.name == "main" || guide::is_runtime_module(info.module)) continue;
    ranked.emplace_back(hits, fn);
  }
  // Most hits first; ties by function id.
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return std::tie(b.first, a.second) < std::tie(a.first, b.second);
  });
  std::vector<image::FunctionId> selected;
  for (std::size_t i = 0; i < ranked.size() && i < options_.top_k; ++i) {
    selected.push_back(ranked[i].second);
    report_.selected.push_back(symbols.at(ranked[i].second).name);
  }

  if (selected.empty() || !app_still_running()) {
    finished_ = true;
    co_return;
  }

  // Phase 3: detailed dynamic instrumentation of the selected functions.
  co_await tool_.insert_functions(selected);
  report_.instrumented = true;
  report_.instrumented_from = engine.now();

  co_await engine.sleep(options_.detail_window);

  // Phase 4: remove the probes; the detailed snapshot stays in the trace.
  report_.instrumented_to = engine.now();
  if (options_.remove_after_window && app_still_running()) {
    co_await tool_.remove_functions(selected);
    report_.removed = true;
  }
  finished_ = true;
}

}  // namespace dyntrace::dynprof
