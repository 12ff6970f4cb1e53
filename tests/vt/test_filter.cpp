#include "vt/filter.hpp"

#include <gtest/gtest.h>

#include "asci/app.hpp"
#include "guide/compiler.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"
#include "vt/vtlib.hpp"

namespace dyntrace::vt {
namespace {

image::SymbolTable make_symbols() {
  image::SymbolTable table;
  table.add("main");
  table.add("hypre_SMGSolve");
  table.add("hypre_SMGRelax");
  table.add("hypre_BoxLoop_001");
  table.add("sppm_hydro_x");
  return table;
}

TEST(Filter, ParseDirectivesInOrder) {
  const auto cfg = ConfigFile::parse(R"(
[filter]
deactivate = *
activate = hypre_SMG*
)");
  const auto program = parse_filter(cfg);
  ASSERT_EQ(program.size(), 2u);
  EXPECT_FALSE(program[0].activate);
  EXPECT_EQ(program[0].pattern, "*");
  EXPECT_TRUE(program[1].activate);
}

TEST(Filter, UnknownDirectiveThrows) {
  const auto cfg = ConfigFile::parse("[filter]\nremove = x\n");
  EXPECT_THROW(parse_filter(cfg), Error);
}

TEST(Filter, EmptyTableIsDisabledAndFree) {
  // The Full policy: no config file -> no lookups performed at all.
  FilterTable table;
  EXPECT_FALSE(table.enabled());
  EXPECT_FALSE(table.deactivated(0));
}

TEST(Filter, DeactivateAllThenReactivateSubset) {
  const auto symbols = make_symbols();
  FilterProgram program{{false, "*"}, {true, "hypre_SMG*"}};
  FilterTable table(symbols, program);
  EXPECT_TRUE(table.enabled());
  EXPECT_TRUE(table.deactivated(symbols.find("main")->id));
  EXPECT_FALSE(table.deactivated(symbols.find("hypre_SMGSolve")->id));
  EXPECT_FALSE(table.deactivated(symbols.find("hypre_SMGRelax")->id));
  EXPECT_TRUE(table.deactivated(symbols.find("hypre_BoxLoop_001")->id));
  EXPECT_EQ(table.deactivated_count(), 3u);
}

TEST(Filter, LaterDirectivesWin) {
  const auto symbols = make_symbols();
  FilterTable table(symbols, {{false, "hypre_*"}, {true, "hypre_*"}});
  EXPECT_FALSE(table.deactivated(symbols.find("hypre_SMGSolve")->id));
  EXPECT_EQ(table.deactivated_count(), 0u);
  EXPECT_TRUE(table.enabled());  // lookups still happen once a config was read
}

TEST(Filter, ApplyIsIncremental) {
  const auto symbols = make_symbols();
  FilterTable table(symbols, {{false, "sppm_*"}});
  EXPECT_EQ(table.deactivated_count(), 1u);
  table.apply(CompiledFilter(symbols, {{false, "hypre_*"}}));
  EXPECT_EQ(table.deactivated_count(), 4u);
  table.apply(CompiledFilter(symbols, {{true, "*"}}));
  EXPECT_EQ(table.deactivated_count(), 0u);
}

TEST(Filter, SerializedSizeGrowsWithProgram) {
  EXPECT_EQ(serialized_size({}), 8);
  const FilterProgram one{{false, "abc"}};
  const FilterProgram two{{false, "abc"}, {true, "defgh"}};
  EXPECT_LT(serialized_size(one), serialized_size(two));
}

TEST(Filter, OutOfRangeFunctionIsNotDeactivated) {
  FilterTable table(make_symbols(), {{false, "*"}});
  EXPECT_FALSE(table.deactivated(1000));
}

// --- compiled programs equal directive-by-directive application ---------------

/// The table as it was built before programs were compiled: every
/// directive glob-scans every symbol, in order, later directives winning.
std::vector<std::uint8_t> reference_apply(const image::SymbolTable& symbols,
                                          const std::vector<FilterProgram>& programs) {
  std::vector<std::uint8_t> off(symbols.size(), 0);
  for (const FilterProgram& program : programs) {
    for (const FilterDirective& d : program) {
      for (const auto& f : symbols.all()) {
        if (str::glob_match(d.pattern, f.name)) off[f.id] = d.activate ? 0 : 1;
      }
    }
  }
  return off;
}

/// Apply each program compiled, in order, and compare every function
/// against the reference.
void expect_equivalent(const image::SymbolTable& symbols,
                       const std::vector<FilterProgram>& programs, const std::string& label) {
  FilterTable table;
  bool any_directive = false;
  for (const FilterProgram& program : programs) {
    table.apply(CompiledFilter(symbols, program));
    any_directive = any_directive || !program.empty();
  }
  const std::vector<std::uint8_t> want = reference_apply(symbols, programs);
  std::size_t want_count = 0;
  for (image::FunctionId fn = 0; fn < symbols.size(); ++fn) {
    EXPECT_EQ(table.deactivated(fn), want[fn] != 0) << label << ": " << symbols.at(fn).name;
    want_count += want[fn];
  }
  EXPECT_EQ(table.deactivated_count(), want_count) << label;
  EXPECT_EQ(table.enabled(), any_directive) << label;
}

/// What the budget controller stages: one exact-name directive per function.
FilterProgram exact_program(const image::SymbolTable& symbols, bool activate,
                            std::size_t first, std::size_t stride) {
  FilterProgram program;
  for (std::size_t fn = first; fn < symbols.size(); fn += stride) {
    program.push_back(FilterDirective{activate, symbols.at(static_cast<image::FunctionId>(fn)).name});
  }
  return program;
}

TEST(FilterCompile, FullOffAndSubsetProgramsMatchTheReference) {
  for (const asci::AppSpec* app : asci::all_apps()) {
    expect_equivalent(*app->symbols, {guide::full_off_filter()}, app->name + " Full-Off");
    if (!app->subset.empty()) {
      expect_equivalent(*app->symbols, {guide::subset_filter(app->subset)},
                        app->name + " Subset");
    }
  }
}

TEST(FilterCompile, StagedAdaptiveProgramsMatchTheReference) {
  // Config file first, then confsync rounds deactivating and reactivating
  // functions by exact name, as the adaptive controller stages them.
  for (const asci::AppSpec* app : asci::all_apps()) {
    const image::SymbolTable& symbols = *app->symbols;
    const FilterProgram config =
        app->subset.empty() ? FilterProgram{} : guide::subset_filter(app->subset);
    expect_equivalent(symbols,
                      {config, exact_program(symbols, false, 0, 2),
                       exact_program(symbols, true, 0, 6), FilterProgram{},
                       exact_program(symbols, false, 3, 5)},
                      app->name + " adaptive");
  }
}

TEST(FilterCompile, SeededRandomGlobProgramsMatchTheReference) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    for (const asci::AppSpec* app : asci::all_apps()) {
      const image::SymbolTable& symbols = *app->symbols;
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<FilterProgram> programs(1 + rng.next_below(3));
        for (FilterProgram& program : programs) {
          const auto directives = rng.next_below(12);
          for (std::uint64_t d = 0; d < directives; ++d) {
            // Mutate a real name: cut it to a prefix + '*', wildcard a few
            // characters with '?', or keep it exact; sometimes lead with '*'.
            std::string pattern =
                symbols.at(static_cast<image::FunctionId>(rng.next_below(symbols.size()))).name;
            switch (rng.next_below(4)) {
              case 0: pattern = pattern.substr(0, rng.next_below(pattern.size() + 1)) + "*"; break;
              case 1:
                for (int k = 0; k < 3; ++k) pattern[rng.next_below(pattern.size())] = '?';
                break;
              case 2:
                pattern.erase(0, rng.next_below(pattern.size()));
                pattern.insert(pattern.begin(), '*');
                break;
              default: break;
            }
            program.push_back(FilterDirective{rng.bernoulli(0.5), pattern});
          }
        }
        expect_equivalent(symbols, programs,
                          str::format("%s seed %llu trial %d", app->name.c_str(),
                                      static_cast<unsigned long long>(seed), trial));
      }
    }
  }
}

TEST(FilterCompile, StagedUpdateCompilesEachVersionOnce) {
  telemetry::Registry registry(telemetry::Level::kCounters);
  telemetry::ScopedRegistry scope(registry);
  const auto count = [&registry] {
    return registry.snapshot().counter_value("vt.filter_compiles");
  };
  const image::SymbolTable& symbols = *asci::smg98().symbols;
  StagedUpdate staged;
  staged.program = {{false, "hypre_BoxLoop_*"}};
  staged.version = 1;
  const CompiledFilter* first = &staged.compiled(symbols);
  for (int rank = 1; rank < 64; ++rank) EXPECT_EQ(&staged.compiled(symbols), first);
  EXPECT_EQ(count(), 1u);
  FilterTable table;
  table.apply(*first);
  EXPECT_EQ(table.deactivated_count(), 100u);

  staged.program = {{true, "hypre_BoxLoop_007"}};
  ++staged.version;
  table.apply(staged.compiled(symbols));
  staged.compiled(symbols);
  EXPECT_EQ(count(), 2u);
  EXPECT_EQ(table.deactivated_count(), 99u);
}

}  // namespace
}  // namespace dyntrace::vt
