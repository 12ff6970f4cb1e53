#include "support/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace dyntrace {
namespace {

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Policy", "Time (s)"});
  t.add_row({"Full", "531.2"});
  t.add_row({"None", "27.9"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Policy"), std::string::npos);
  EXPECT_NE(out.find("531.2"), std::string::npos);
  // Header separator exists.
  EXPECT_NE(out.find("----"), std::string::npos);
  // Each line has the same rendered width for the value column.
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, NumFormatsWithPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Table, NumMatchesPrintfFixed) {
  const double values[] = {0.0,
                           -0.0,
                           0.125,
                           2.5,
                           0.5,
                           1.5,
                           -2.5,
                           -0.125,
                           1.0 / 3.0,
                           -7.875,
                           123456.789,
                           0.0049999999999999999,
                           1e300,
                           -1e300,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double value : values) {
    for (int precision = 0; precision <= 9; ++precision) {
      std::vector<char> buf(512);
      const int n = std::snprintf(buf.data(), buf.size(), "%.*f", precision, value);
      ASSERT_GT(n, 0);
      EXPECT_EQ(TextTable::num(value, precision), std::string(buf.data(), n))
          << "value " << value << " precision " << precision;
    }
  }
}

TEST(Table, RenderPadsEveryLineToOneWidth) {
  TextTable t({"name", "n"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  EXPECT_EQ(t.render(),
            "name     n\n"
            "----------\n"
            "a        1\n"
            "longer  22\n");
}

TEST(Table, CsvOutput) {
  TextTable t({"cpus", "full", "none"});
  t.add_row({"64", "531.0", "70.5"});
  EXPECT_EQ(t.render_csv(), "cpus,full,none\n64,531.0,70.5\n");
}

TEST(Table, SetAlignOverridesTheColumnDefault) {
  TextTable t({"a", "b"});
  t.set_align(1, TextTable::Align::kLeft);
  t.add_row({"x", "1"});
  t.add_row({"y", "22"});
  EXPECT_EQ(t.render(), "a  b \n-----\nx  1 \ny  22\n");
}

TEST(Table, RightAlignmentPadsLeft) {
  TextTable t({"a", "b"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  // "b" column is right aligned: "1" should be preceded by a space in its row.
  EXPECT_NE(out.find(" 1"), std::string::npos);
}

}  // namespace
}  // namespace dyntrace
