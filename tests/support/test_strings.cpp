#include "support/strings.hpp"

#include <gtest/gtest.h>

namespace dyntrace::str {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, SplitPreservesEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitWsSkipsRuns) {
  EXPECT_EQ(split_ws("  a \t b\nc  "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_TRUE(split_ws("").empty());
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("function_name", "func"));
  EXPECT_FALSE(starts_with("fn", "func"));
  EXPECT_TRUE(ends_with("solver.f", ".f"));
  EXPECT_FALSE(ends_with("f", ".f"));
}

TEST(Strings, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("MPI_Init", "mpi_init"));
  EXPECT_FALSE(iequals("MPI_Init", "MPI_Initx"));
}

TEST(Strings, ParseI64Strict) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64(" -7 "), -7);
  EXPECT_FALSE(parse_i64("42x").has_value());
  EXPECT_FALSE(parse_i64("").has_value());
  EXPECT_FALSE(parse_i64("4 2").has_value());
}

TEST(Strings, ParseF64Strict) {
  EXPECT_DOUBLE_EQ(*parse_f64("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_f64("-1e3"), -1000.0);
  EXPECT_FALSE(parse_f64("1.2.3").has_value());
  EXPECT_FALSE(parse_f64("").has_value());
}

TEST(Strings, FormatPrintfStyle) {
  EXPECT_EQ(format("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(format("%s", ""), "");
}

struct GlobCase {
  const char* pattern;
  const char* text;
  bool expect;
};

// gtest prints the parameter into the test name ctest registers; the default
// byte dump would show the literals' addresses, which change on every run.
void PrintTo(const GlobCase& c, std::ostream* os) {
  *os << "'" << c.pattern << "' vs '" << c.text << "' is " << (c.expect ? "match" : "no match");
}

class GlobMatch : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatch, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(glob_match(c.pattern, c.text), c.expect)
      << "pattern='" << c.pattern << "' text='" << c.text << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GlobMatch,
    ::testing::Values(
        GlobCase{"*", "", true}, GlobCase{"*", "anything", true},
        GlobCase{"mpi_*", "mpi_send", true}, GlobCase{"mpi_*", "omp_send", false},
        GlobCase{"*_solve", "mg_solve", true}, GlobCase{"*_solve", "mg_solver", false},
        GlobCase{"a?c", "abc", true}, GlobCase{"a?c", "ac", false},
        GlobCase{"*mg*", "hypre_smg_relax", true},
        GlobCase{"exact", "exact", true}, GlobCase{"exact", "exac", false},
        GlobCase{"a*b*c", "a_x_b_y_c", true}, GlobCase{"a*b*c", "a_x_c_y_b", false},
        GlobCase{"", "", true}, GlobCase{"", "x", false},
        GlobCase{"**", "x", true}));

}  // namespace
}  // namespace dyntrace::str
