#include "guide/compiler.hpp"

#include <gtest/gtest.h>

namespace dyntrace::guide {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main", "app.c");
  table->add("MPI_Init", "libmpi");
  table->add("VT_init", "libvt");
  table->add("solver", "solver.c");
  table->add("util", "util.c");
  return table;
}

TEST(Guide, InstrumentsUserSubroutinesOnly) {
  const auto img = compile(make_symbols(), CompileOptions{.instrument_subroutines = true});
  EXPECT_TRUE(img.static_instrumented(0));   // main
  EXPECT_FALSE(img.static_instrumented(1));  // MPI_Init: runtime library
  EXPECT_FALSE(img.static_instrumented(2));  // VT_init: runtime library
  EXPECT_TRUE(img.static_instrumented(3));
  EXPECT_TRUE(img.static_instrumented(4));
}

TEST(Guide, NoInstrumentationWhenDisabled) {
  const auto img = compile(make_symbols(), CompileOptions{.instrument_subroutines = false});
  for (image::FunctionId fn = 0; fn < img.symbols().size(); ++fn) {
    EXPECT_FALSE(img.static_instrumented(fn)) << fn;
  }
}

TEST(Guide, RuntimeModuleClassification) {
  EXPECT_TRUE(is_runtime_module("libmpi"));
  EXPECT_TRUE(is_runtime_module("libvt"));
  EXPECT_TRUE(is_runtime_module("crt"));
  EXPECT_FALSE(is_runtime_module("solver.c"));
}

TEST(Guide, FullOffFilterDeactivatesEverything) {
  const auto program = full_off_filter();
  ASSERT_EQ(program.size(), 1u);
  EXPECT_FALSE(program[0].activate);
  EXPECT_EQ(program[0].pattern, "*");
}

TEST(Guide, SubsetFilterReactivatesNamedFunctions) {
  const auto program = subset_filter({"solver", "fft"});
  ASSERT_EQ(program.size(), 3u);
  EXPECT_FALSE(program[0].activate);
  EXPECT_TRUE(program[1].activate);
  EXPECT_EQ(program[1].pattern, "solver");
  EXPECT_EQ(program[2].pattern, "fft");
}

TEST(Guide, SubsetFilterResolvesAgainstSymbols) {
  const auto symbols = make_symbols();
  vt::FilterTable table(*symbols, subset_filter({"solver"}));
  EXPECT_FALSE(table.deactivated(3));  // solver re-activated
  EXPECT_TRUE(table.deactivated(4));   // util off
  EXPECT_TRUE(table.deactivated(0));   // main off
}

}  // namespace
}  // namespace dyntrace::guide
