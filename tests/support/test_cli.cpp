#include "support/cli.hpp"

#include <gtest/gtest.h>

#include "support/common.hpp"

namespace dyntrace {
namespace {

TEST(Cli, ParsesFlagsAndOptions) {
  bool verbose = false;
  std::int64_t cpus = 1;
  double scale = 1.0;
  std::string name = "default";
  CliParser p("tool", "test tool");
  p.flag("verbose", "be chatty", &verbose)
      .option_int("cpus", "processor count", &cpus)
      .option_double("scale", "scale factor", &scale)
      .option_string("name", "app name", &name);

  const char* argv[] = {"tool", "--verbose", "--cpus", "64", "--scale=2.5", "--name", "smg98"};
  ASSERT_TRUE(p.parse(7, argv));
  EXPECT_TRUE(verbose);
  EXPECT_EQ(cpus, 64);
  EXPECT_DOUBLE_EQ(scale, 2.5);
  EXPECT_EQ(name, "smg98");
}

TEST(Cli, GivenListsTheAppliedOptionsInOrder) {
  bool verbose = false;
  int cpus = 1;
  std::string app;
  CliParser p("tool", "t");
  p.positional("app", "a", &app).flag("verbose", "v", &verbose).option_int("cpus", "c", &cpus);
  const char* argv[] = {"tool", "--cpus=4", "smg98", "--verbose"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.given(), (std::vector<std::string>{"cpus", "verbose"}));
}

TEST(Cli, DefaultsSurviveWhenAbsent) {
  std::int64_t cpus = 8;
  CliParser p("tool", "t");
  p.option_int("cpus", "c", &cpus);
  const char* argv[] = {"tool"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(cpus, 8);
}

TEST(Cli, PositionalsRequiredAndOptional) {
  std::string in, out;
  CliParser p("tool", "t");
  p.positional("input", "input file", &in).positional("output", "output file", &out, true);

  const char* argv1[] = {"tool", "app.x"};
  ASSERT_TRUE(p.parse(2, argv1));
  EXPECT_EQ(in, "app.x");
  EXPECT_EQ(out, "");

  const char* argv2[] = {"tool"};
  EXPECT_THROW(p.parse(1, argv2), Error);
}

TEST(Cli, RestCollectsExtraArguments) {
  std::string first;
  std::vector<std::string> rest;
  CliParser p("tool", "t");
  p.positional("first", "f", &first).rest(&rest);
  const char* argv[] = {"tool", "a", "b", "c"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(first, "a");
  EXPECT_EQ(rest, (std::vector<std::string>{"b", "c"}));
}

TEST(Cli, UnknownOptionThrows) {
  CliParser p("tool", "t");
  const char* argv[] = {"tool", "--nope"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(Cli, UnexpectedPositionalThrows) {
  CliParser p("tool", "t");
  const char* argv[] = {"tool", "stray"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(Cli, MissingValueThrows) {
  std::int64_t cpus = 0;
  CliParser p("tool", "t");
  p.option_int("cpus", "c", &cpus);
  const char* argv[] = {"tool", "--cpus"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(Cli, BadIntValueThrows) {
  std::int64_t cpus = 0;
  CliParser p("tool", "t");
  p.option_int("cpus", "c", &cpus);
  const char* argv[] = {"tool", "--cpus", "many"};
  EXPECT_THROW(p.parse(3, argv), Error);
}

TEST(Cli, IntOptionRejectsValuesOutsideIntRange) {
  // 4294967298 narrowed to int would silently be 2.
  int cpus = 1;
  CliParser p("tool", "t");
  p.option_int("cpus", "c", &cpus);
  const char* wide[] = {"tool", "--cpus", "4294967298"};
  try {
    p.parse(3, wide);
    FAIL() << "4294967298 was accepted as an int";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--cpus"), std::string::npos) << e.what();
  }
  EXPECT_EQ(cpus, 1);
  const char* negative[] = {"tool", "--cpus=-2147483649"};
  EXPECT_THROW(p.parse(2, negative), Error);
  const char* fits[] = {"tool", "--cpus", "2147483647"};
  ASSERT_TRUE(p.parse(3, fits));
  EXPECT_EQ(cpus, 2147483647);
}

TEST(Cli, HelpListsPositionals) {
  std::string app;
  std::string arg;
  CliParser p("tool", "does things");
  p.positional("app", "what to run", &app).positional("arg", "its argument", &arg, true);
  const std::string help = p.help_text();
  EXPECT_NE(help.find("usage: tool <app> [arg]\n"), std::string::npos) << help;
  EXPECT_NE(help.find("arguments:\n  app\n      what to run\n  arg\n      its argument\n"),
            std::string::npos)
      << help;
}

TEST(Cli, HelpReturnsFalseAndMentionsOptions) {
  bool v = false;
  CliParser p("tool", "does things");
  p.flag("verbose", "chatty", &v);
  const char* argv[] = {"tool", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
  const std::string help = p.help_text();
  EXPECT_NE(help.find("--verbose"), std::string::npos);
  EXPECT_NE(help.find("does things"), std::string::npos);
}

}  // namespace
}  // namespace dyntrace
