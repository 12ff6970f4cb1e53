// HybridController (§5.1/§6 combined paradigm) and attach-to-running mode.
#include <gtest/gtest.h>

#include "dynprof/hybrid.hpp"

namespace dyntrace::dynprof {
namespace {

struct HybridRun {
  explicit HybridRun(HybridController::Options options, const asci::AppSpec& app = asci::sppm(),
                     int nprocs = 2) {
    Launch::Options lopt;
    lopt.app = &app;
    lopt.params.nprocs = nprocs;
    lopt.params.problem_scale = 0.3;
    lopt.policy = Policy::kDynamic;  // uninstrumented build driven by the tool
    launch = std::make_unique<Launch>(std::move(lopt));

    tool = std::make_unique<DynprofTool>(*launch, DynprofTool::Options{});
    tool->run_script(parse_script("start\n"));
    controller = std::make_unique<HybridController>(*launch, *tool, options);
    controller->start();
    launch->engine().run();
  }

  std::unique_ptr<Launch> launch;
  std::unique_ptr<DynprofTool> tool;
  std::unique_ptr<HybridController> controller;
};

HybridController::Options default_options() {
  HybridController::Options options;
  options.sample_window = sim::seconds(4);
  options.sampling_interval = sim::milliseconds(4);
  options.per_sample_cost = sim::microseconds(10);
  options.top_k = 3;
  options.detail_window = sim::seconds(8);
  return options;
}

TEST(Hybrid, SamplesThenInstrumentsThenRemoves) {
  HybridRun run(default_options());
  const auto& report = run.controller->report();
  ASSERT_TRUE(run.controller->finished());
  EXPECT_GT(report.total_samples, 500u);
  ASSERT_FALSE(report.selected.empty());
  EXPECT_LE(report.selected.size(), 3u);
  EXPECT_TRUE(report.instrumented);
  EXPECT_TRUE(report.removed);
  EXPECT_GT(report.instrumented_to, report.instrumented_from);
  // Probes are gone again at the end.
  EXPECT_EQ(run.tool->instrumented_function_count(), 0u);
}

TEST(Hybrid, SamplingFindsWhereTheTimeGoes) {
  // Sppm's time lives in the hydro drivers (subset) -- sampling must find
  // driver functions, not the tiny interpolation helpers.
  HybridRun run(default_options());
  const auto& selected = run.controller->report().selected;
  ASSERT_FALSE(selected.empty());
  int drivers = 0;
  for (const auto& name : selected) {
    for (const auto& s : asci::sppm().subset) {
      if (name == s) ++drivers;
    }
  }
  EXPECT_GE(drivers, 1) << "top-sampled functions should include a hydro driver";
}

TEST(Hybrid, DetailWindowEventsAppearInTrace) {
  HybridRun run(default_options());
  const auto& report = run.controller->report();
  ASSERT_TRUE(report.instrumented);
  // Enter events for selected functions exist, and only in (or near) the
  // detail window -- probes were inserted and later removed.
  const auto& symbols = *asci::sppm().symbols;
  std::uint64_t in_window = 0, outside = 0;
  for (const auto& e : run.launch->trace()->merged()) {
    if (e.kind != vt::EventKind::kEnter) continue;
    for (const auto& name : report.selected) {
      if (symbols.find(name)->id != static_cast<image::FunctionId>(e.code)) continue;
      if (e.time >= report.instrumented_from - sim::seconds(1) &&
          e.time <= report.instrumented_to + sim::seconds(1)) {
        ++in_window;
      } else {
        ++outside;
      }
    }
  }
  EXPECT_GT(in_window, 0u);
  EXPECT_EQ(outside, 0u);
}

TEST(Hybrid, SuspensionsBoundedByTwoPatchCycles) {
  HybridRun run(default_options());
  // insert + remove = 2 suspend/resume cycles per process (plus sampler
  // interruptions, which use the same mechanism -- count only full stops
  // via the tool: each do_insert/do_remove suspends once).
  EXPECT_TRUE(run.controller->report().removed);
  EXPECT_GE(run.launch->job().process(0).suspend_count(), 2u);
}

TEST(Hybrid, GracefulWhenAppEndsBeforeDetailWindow) {
  HybridController::Options options = default_options();
  options.sample_window = sim::seconds(2);
  options.detail_window = sim::seconds(10'000);  // far beyond app lifetime
  HybridRun run(options);
  const auto& report = run.controller->report();
  EXPECT_TRUE(run.controller->finished());
  EXPECT_TRUE(report.instrumented);
  EXPECT_FALSE(report.removed);  // nothing left to remove
}

TEST(Hybrid, KeepProbesOptionLeavesThemInstalled) {
  HybridController::Options options = default_options();
  options.remove_after_window = false;
  HybridRun run(options);
  EXPECT_TRUE(run.controller->finished());
  EXPECT_GT(run.tool->instrumented_function_count(), 0u);
}

}  // namespace
}  // namespace dyntrace::dynprof
