#include "image/symbols.hpp"

#include <gtest/gtest.h>

#include "asci/app.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::image {
namespace {

TEST(Symbols, AddAssignsDenseIds) {
  SymbolTable table;
  EXPECT_EQ(table.add("alpha"), 0u);
  EXPECT_EQ(table.add("beta", "mod.c"), 1u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.at(1).name, "beta");
  EXPECT_EQ(table.at(1).module, "mod.c");
}

TEST(Symbols, FindByName) {
  SymbolTable table;
  table.add("mpi_send_wrapper");
  EXPECT_NE(table.find("mpi_send_wrapper"), nullptr);
  EXPECT_EQ(table.find("mpi_send_wrapper")->id, 0u);
  EXPECT_EQ(table.find("nope"), nullptr);
  EXPECT_TRUE(table.contains("mpi_send_wrapper"));
}

TEST(Symbols, DuplicateNamesRejected) {
  SymbolTable table;
  table.add("f");
  EXPECT_THROW(table.add("f"), Error);
}

TEST(Symbols, EmptyNameRejected) {
  SymbolTable table;
  EXPECT_THROW(table.add(""), Error);
}

TEST(Symbols, GlobMatchReturnsIdsInOrder) {
  SymbolTable table;
  table.add("hypre_SMGSolve");
  table.add("main");
  table.add("hypre_SMGRelax");
  table.add("hypre_BoxLoop_001");
  const auto smg = table.match("hypre_SMG*");
  EXPECT_EQ(smg, (std::vector<FunctionId>{0, 2}));
  EXPECT_EQ(table.match("*").size(), 4u);
  EXPECT_TRUE(table.match("zzz*").empty());
}

TEST(Symbols, PaperFunctionCounts) {
  // Table 2 / §4.3 inventory checks live against the real app specs in
  // tests/asci; here just verify the API supports the scale.
  SymbolTable table;
  for (int i = 0; i < 199; ++i) table.add("fn_" + std::to_string(i));
  EXPECT_EQ(table.size(), 199u);
  EXPECT_EQ(table.match("fn_*").size(), 199u);
}

/// What match() returned before exact names took the hash-table path: a
/// glob scan over every symbol.
std::vector<FunctionId> scan_match(const SymbolTable& table, std::string_view glob) {
  std::vector<FunctionId> out;
  for (const auto& f : table.all()) {
    if (str::glob_match(glob, f.name)) out.push_back(f.id);
  }
  return out;
}

TEST(Symbols, ExactNameMatchesExactlyThatSymbolInEveryKernel) {
  for (const asci::AppSpec* app : asci::all_apps()) {
    const SymbolTable& table = *app->symbols;
    for (const auto& f : table.all()) {
      EXPECT_EQ(table.match(f.name), (std::vector<FunctionId>{f.id})) << app->name << " " << f.name;
      EXPECT_EQ(table.match(f.name), scan_match(table, f.name)) << app->name << " " << f.name;
    }
    EXPECT_TRUE(table.match("no_such_function").empty()) << app->name;
  }
}

TEST(Symbols, GlobPatternsMatchTheSameIdsAsAScan) {
  const char* const patterns[] = {"*",          "?*",           "hypre_*",     "hypre_SMG*",
                                  "*_0?",       "*Cycle_?7",    "sppm_*",      "sppm_intrfc_1?",
                                  "umt_*",      "sn*",          "*3d",         "?ain",
                                  "MPI_*",      "*_*_*",        "main*",       "**init*",
                                  "hypre_BoxLoop_0??", "?",     "*z*",         "*Solve?"};
  for (const asci::AppSpec* app : asci::all_apps()) {
    const SymbolTable& table = *app->symbols;
    for (const char* pattern : patterns) {
      EXPECT_EQ(table.match(pattern), scan_match(table, pattern)) << app->name << " " << pattern;
    }
  }
}

}  // namespace
}  // namespace dyntrace::image
