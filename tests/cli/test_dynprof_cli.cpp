// dynprof_cli end to end: every output flag works under every policy, and a
// flag with nothing to act on under the chosen policy is an error, never
// silently ignored.  Bench binaries reject a bad integer flag value the
// same way, with exit code 1.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

/// A scratch directory private to the running test, removed on exit.
struct TestDir {
  TestDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("dynprof_cli_") + info->name() + "_" + std::to_string(::getpid()));
    fs::create_directories(path);
  }
  ~TestDir() { fs::remove_all(path); }
  fs::path path;
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Run `binary` with `args` (stdin empty, stdout+stderr to `log`) and
/// return its exit code.
int run_binary(const std::string& binary, const std::string& args, const fs::path& log) {
  const std::string command = binary + " " + args + " < /dev/null > " + log.string() + " 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_cli(const std::string& args, const fs::path& log) {
  return run_binary(DYNPROF_CLI, args, log);
}

TEST(DynprofCli, EveryOutputFlagWritesItsFileUnderEveryPolicy) {
  const TestDir scratch;
  const fs::path& dir = scratch.path;
  const fs::path script = dir / "run.dynprof";
  std::ofstream(script) << "insert-file subset\nstart\nquit\n";
  for (const std::string policy : {"dynamic", "none", "full", "full-off", "subset", "adaptive"}) {
    const fs::path out = dir / policy;
    fs::create_directories(out);
    std::string args = "smg98 --cpus 8 --policy " + policy +
                       " --telemetry=spans --telemetry-stats " + (out / "stats.json").string() +
                       " --telemetry-trace " + (out / "spans.json").string() + " --trace " +
                       (out / "trace.txt").string() + " --trace-bin " +
                       (out / "trace.bin").string();
    const bool with_tool = policy == "dynamic" || policy == "adaptive";
    if (with_tool) args += " --script " + script.string() + " --timefile " + (out / "t.txt").string();
    const fs::path log = out / "stdout.txt";
    ASSERT_EQ(run_cli(args, log), 0) << policy << ":\n" << slurp(log);
    for (const char* file : {"stats.json", "spans.json", "trace.txt", "trace.bin"}) {
      EXPECT_TRUE(fs::exists(out / file) && fs::file_size(out / file) > 0)
          << policy << ": " << file << " not written\n"
          << slurp(log);
    }
    if (with_tool) {
      EXPECT_NE(slurp(out / "t.txt").find("install-probes"), std::string::npos) << policy;
    }
    EXPECT_NE(slurp(out / "spans.json").find("traceEvents"), std::string::npos) << policy;
  }
}

TEST(DynprofCli, FaultPlanRunsUnderAStaticPolicy) {
  const TestDir scratch;
  const fs::path& dir = scratch.path;
  std::ofstream(dir / "empty.plan") << "seed 3\n";
  const fs::path log = dir / "stdout.txt";
  ASSERT_EQ(run_cli("sppm --cpus 4 --policy full --fault-plan " + (dir / "empty.plan").string(),
                    log),
            0)
      << slurp(log);
  EXPECT_NE(slurp(log).find("fault report: no faults fired"), std::string::npos) << slurp(log);
}

TEST(DynprofCli, HelpPrintsTheCommandTable) {
  const TestDir scratch;
  const fs::path& dir = scratch.path;
  std::ofstream(dir / "help.dynprof") << "help\nstart\nquit\n";
  const fs::path log = dir / "stdout.txt";
  ASSERT_EQ(run_cli("sppm --cpus 2 --scale 0.1 --script " + (dir / "help.dynprof").string(), log),
            0)
      << slurp(log);
  const std::string out = slurp(log);
  EXPECT_NE(out.find("dynprof commands:\n  help (h)  Displays a help message\n"),
            std::string::npos)
      << out;
  for (const char* command : {"  insert-file (if)  ", "  start (s)  ", "  quit (q)  "}) {
    EXPECT_NE(out.find(command), std::string::npos) << command << "\n" << out;
  }
}

TEST(DynprofCli, ReportPrintsNodeHealthUnderTheTool) {
  const TestDir scratch;
  const fs::path& dir = scratch.path;
  // The mid-run insert meets the plan's dead, flapping and degraded daemons.
  std::ofstream(dir / "gray.dynprof") << "insert-file subset\nstart\nwait 5\n"
                                         "insert-file subset\nquit\n";
  const std::string plan = std::string(DYNTRACE_SOURCE_DIR) + "/configs/fault-matrix.plan";
  const fs::path log = dir / "stdout.txt";
  ASSERT_EQ(run_cli("smg98 --cpus 64 --scale 0.15 --report --fault-plan " + plan + " --script " +
                        (dir / "gray.dynprof").string(),
                    log),
            0)
      << slurp(log);
  const std::string out = slurp(log);
  const std::size_t summary = out.find("=== trace summary ===");
  const std::size_t health = out.find("node  score  breaker");
  ASSERT_NE(summary, std::string::npos) << out;
  ASSERT_NE(health, std::string::npos) << out;
  EXPECT_LT(summary, health) << out;
  EXPECT_NE(out.find("8 node(s) tracked, 2 quarantined\n"), std::string::npos) << out;

  // Static policies run no tool, so there is no daemon to report on.
  ASSERT_EQ(run_cli("smg98 --cpus 8 --policy full --report", log), 0) << slurp(log);
  EXPECT_EQ(slurp(log).find("node(s) tracked"), std::string::npos) << slurp(log);
}

TEST(DynprofCli, ReportShowsTheTraceVolumeOfASpilledRun) {
  const TestDir scratch;
  const fs::path log = scratch.path / "stdout.txt";
  ASSERT_EQ(run_cli("sweep3d --cpus 4 --policy full --trace-spill-bytes 16384 --report", log), 0)
      << slurp(log);
  const std::string out = slurp(log);
  EXPECT_NE(out.find("trace volume: "), std::string::npos) << out;
  EXPECT_NE(out.find(" spilled record(s) in "), std::string::npos) << out;
  EXPECT_NE(out.find(", suppression folded "), std::string::npos) << out;
}

TEST(DynprofCli, AFlagWithNothingToActOnExitsOne) {
  const TestDir scratch;
  const fs::path& dir = scratch.path;
  const fs::path log = dir / "stdout.txt";
  std::ofstream(dir / "run.dynprof") << "start\nquit\n";
  struct Case {
    std::string args;
    std::string flag;  ///< the message names it
  };
  std::vector<Case> cases;
  for (const char* policy : {"none", "full", "full-off", "subset"}) {
    cases.push_back({std::string("smg98 --cpus 4 --policy ") + policy + " --timefile " +
                         (dir / "t.txt").string(),
                     "--timefile"});
    cases.push_back({std::string("smg98 --cpus 4 --policy ") + policy + " --script " +
                         (dir / "run.dynprof").string(),
                     "--script"});
  }
  cases.push_back({"smg98 stray --cpus 4 --policy none", "stray"});
  cases.push_back({"smg98 --cpus 4 --policy none --fault-seed 7", "--fault-seed"});
  cases.push_back({"smg98 --cpus 4 --policy none --replay-strict", "--replay-strict"});
  cases.push_back({"smg98 --cpus 4 --policy none --telemetry=counters --telemetry-trace " +
                       (dir / "spans.json").string(),
                   "--telemetry-trace"});
  // The report subcommand runs nothing, so every run flag is one too many.
  const std::string stats = (dir / "stats.json").string();
  std::ofstream(stats) << R"({"level": "off", "counters": {}, "gauges": {}, )"
                       << R"("histograms": {}, "keyed": {}})";
  ASSERT_EQ(run_cli("report " + stats, log), 0) << slurp(log);
  cases.push_back({"report " + stats + " --timefile " + (dir / "t.txt").string(), "--timefile"});
  cases.push_back({"report " + stats + " --policy adaptive", "--policy"});
  cases.push_back({"--cpus 4 report " + stats, "--cpus"});
  for (const Case& c : cases) {
    EXPECT_EQ(run_cli(c.args, log), 1) << c.args << "\n" << slurp(log);
    EXPECT_NE(slurp(log).find(c.flag), std::string::npos) << c.args << "\n" << slurp(log);
  }
  EXPECT_FALSE(fs::exists(dir / "t.txt"));
  EXPECT_FALSE(fs::exists(dir / "spans.json"));
}

TEST(BenchFlags, AnIntFlagOutOfRangeOrNotAnIntegerExitsOne) {
  // 4294967300 narrowed to int would be 4, and 4294967297 would be 1.
  const TestDir scratch;
  const fs::path log = scratch.path / "stdout.txt";
  const struct {
    const char* binary;
    const char* flag;
  } cases[] = {{FIG8B_CONFSYNC_STATS, "--arity"},
               {FIG8B_CONFSYNC_STATS, "--reps"},
               {SERVICE_SESSIONS, "--sessions"},
               {SERVICE_SESSIONS, "--session-batch"}};
  for (const auto& c : cases) {
    for (const char* value : {"4294967300", "abc"}) {
      const std::string args = std::string(c.flag) + " " + value;
      EXPECT_EQ(run_binary(c.binary, args, log), 1) << c.binary << " " << args << "\n"
                                                    << slurp(log);
      EXPECT_NE(slurp(log).find(c.flag), std::string::npos) << c.binary << " " << args;
    }
  }
}

TEST(BenchFlags, AnArityBelowTwoExitsOne) {
  // The overlay needs two children per interior rank; fig8b would otherwise
  // print "Tree k=-1" over a linear gather.
  const TestDir scratch;
  const fs::path log = scratch.path / "stdout.txt";
  for (const char* binary : {FIG8B_CONFSYNC_STATS, CONTROL_ADAPTIVE}) {
    for (const char* value : {"1", "0", "-1"}) {
      const std::string args = std::string("--arity ") + value;
      EXPECT_EQ(run_binary(binary, args, log), 1) << binary << " " << args << "\n" << slurp(log);
      EXPECT_NE(slurp(log).find("--arity"), std::string::npos) << binary << " " << args;
    }
  }
}

TEST(BenchFlags, ServiceSessionsRejectsAScenarioItCannotRun) {
  // --functions 0 used to panic, and --commands -1 and --commands
  // 2000000000 to end in std::terminate (std::length_error and
  // std::bad_alloc while the scripts were built; exit 134); each is now a
  // message naming the option and exit 1, the sizes before anything is
  // allocated.  Every run has a 1000-session cell, so --commands 60000
  // builds too many commands whatever --sessions says.
  const TestDir scratch;
  const fs::path log = scratch.path / "stdout.txt";
  const fs::path json = scratch.path / "service.json";
  const struct {
    const char* args;
    const char* option;
  } cases[] = {{"--functions 0", "ScenarioOptions::functions"},
               {"--commands -1", "ScenarioOptions::commands_per_session"},
               {"--commands 2000000000", "ScenarioOptions::commands_per_session"},
               {"--functions 2000000000", "ScenarioOptions::functions"},
               {"--commands 60000", "ScenarioOptions::sessions"}};
  for (const auto& c : cases) {
    const std::string args = std::string(c.args) +
                             " --sessions 10 --skip-batch --skip-determinism --json " +
                             json.string();
    EXPECT_EQ(run_binary(SERVICE_SESSIONS, args, log), 1) << args << "\n" << slurp(log);
    EXPECT_NE(slurp(log).find(c.option), std::string::npos) << args << "\n" << slurp(log);
  }
}

TEST(BenchFlags, ServiceSessionsPassesItsGatesAtALargerInventory) {
  // Twice the default inventory: more requests queue and wait through more
  // pricing epochs, which the per-command ceilings of the default
  // inventory (4 evaluations, 1 visit) do not allow for; the retry
  // design's exact bounds hold.
  const TestDir scratch;
  const fs::path log = scratch.path / "stdout.txt";
  const fs::path json = scratch.path / "service.json";
  const std::string args =
      "--sessions 1000 --functions 64 --skip-batch --skip-determinism --json " + json.string();
  EXPECT_EQ(run_binary(SERVICE_SESSIONS, args, log), 0) << slurp(log);
  EXPECT_EQ(slurp(log).find("[FAIL]"), std::string::npos) << slurp(log);
}

TEST(BenchFlags, MaxCpusIsZeroOrAPowerOfTwoPastThePaper) {
  // Below 128 the sweep used to run the paper counts unchanged, and a value
  // between powers of two stopped silently at the one below it.
  const TestDir scratch;
  const fs::path log = scratch.path / "stdout.txt";
  for (const char* binary : {FIG7A_SMG98, FIG9_INSTRUMENT_TIME}) {
    for (const char* value : {"-4", "64", "100", "192", "4095"}) {
      const std::string args = std::string("--scale 0.05 --max-cpus ") + value;
      EXPECT_EQ(run_binary(binary, args, log), 1) << binary << " " << args << "\n" << slurp(log);
      EXPECT_NE(slurp(log).find("--max-cpus"), std::string::npos) << binary << " " << args;
    }
  }
  // Umt98 is an OpenMP app: its sweep stays within one node.
  EXPECT_EQ(run_binary(FIG7D_UMT98, "--scale 0.05 --max-cpus 128", log), 1) << slurp(log);
  EXPECT_NE(slurp(log).find("--max-cpus"), std::string::npos) << slurp(log);
}

TEST(BenchFlags, MicroSimEngineRejectsAnEmptyQueueRun) {
  // Zero events would pass both zero-allocation gates with nothing run.
  const TestDir scratch;
  const fs::path log = scratch.path / "stdout.txt";
  for (const char* args : {"--queue-n 0", "--queue-reps 0", "--queue-n -3"}) {
    const std::string flag = std::string(args).substr(0, std::string(args).find(' '));
    EXPECT_EQ(run_binary(MICRO_SIM_ENGINE, args, log), 1) << args << "\n" << slurp(log);
    EXPECT_NE(slurp(log).find(flag), std::string::npos) << args << "\n" << slurp(log);
  }
}

TEST(BenchFlags, ServiceSessionsRunsWithZeroSessions) {
  const TestDir scratch;
  const fs::path log = scratch.path / "stdout.txt";
  const fs::path json = scratch.path / "service.json";
  EXPECT_EQ(run_binary(SERVICE_SESSIONS,
                       "--sessions 0 --skip-batch --skip-determinism --json " + json.string(), log),
            0)
      << slurp(log);
  EXPECT_NE(slurp(json).find("\"sessions\": 0,"), std::string::npos) << slurp(json);
}

}  // namespace
