#include "support/config.hpp"

#include <gtest/gtest.h>

#include "support/common.hpp"

namespace dyntrace {
namespace {

constexpr const char* kSample = R"(
# machine profile
top = global

[node]
cpus = 8
memory_gb = 4.0
smp = yes

[interconnect]
latency_us = 20    ; per message
bandwidth_mbps = 350
name = colony
)";

TEST(Config, ParsesSectionsAndKeys) {
  const auto cfg = ConfigFile::parse(kSample);
  EXPECT_EQ(cfg.get_string("", "top", "?"), "global");
  EXPECT_EQ(cfg.get_int("node", "cpus", 0), 8);
  EXPECT_DOUBLE_EQ(cfg.get_double("node", "memory_gb", 0.0), 4.0);
  EXPECT_EQ(cfg.get_string("interconnect", "name", "?"), "colony");
}

TEST(Config, CommentsAreStripped) {
  const auto cfg = ConfigFile::parse(kSample);
  EXPECT_EQ(cfg.get_int("interconnect", "latency_us", -1), 20);
}

TEST(Config, MissingKeysFallBack) {
  const auto cfg = ConfigFile::parse(kSample);
  EXPECT_EQ(cfg.get_int("node", "missing", 99), 99);
  EXPECT_EQ(cfg.get_string("nosection", "k", "dflt"), "dflt");
}

TEST(Config, TypeErrorsThrow) {
  const auto cfg = ConfigFile::parse("[a]\nk = not_a_number\n");
  EXPECT_THROW(cfg.get_int("a", "k", 0), Error);
  EXPECT_THROW(cfg.get_double("a", "k", 0.0), Error);
}

TEST(Config, RepeatedKeysPreservedInOrderLastWins) {
  // The getters read a repeated key's last value in file order.
  const auto cfg = ConfigFile::parse("[f]\nsym = a\nsym = b\nsym = c\n");
  EXPECT_EQ(cfg.get("f", "sym"), "c");
}

TEST(Config, SyntaxErrorsReportLineNumbers) {
  try {
    ConfigFile::parse("ok = 1\nbroken line\n", "test.cfg");
    FAIL() << "no exception";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("test.cfg:2"), std::string::npos) << e.what();
  }
}

TEST(Config, UnterminatedSectionThrows) {
  EXPECT_THROW(ConfigFile::parse("[oops\n"), Error);
}

TEST(Config, EmptyKeyThrows) {
  EXPECT_THROW(ConfigFile::parse(" = v\n"), Error);
}

TEST(Config, LoadMissingFileThrows) {
  EXPECT_THROW(ConfigFile::load("/nonexistent/path/to.cfg"), Error);
}

}  // namespace
}  // namespace dyntrace
