// DynprofTool behaviour: the Figure 6 protocol, deferred insertion, mid-run
// patching, and the timefile.
#include <gtest/gtest.h>

#include "dynprof/policy.hpp"

namespace dyntrace::dynprof {
namespace {

Launch::Options small_run(const asci::AppSpec& app, int nprocs) {
  Launch::Options options;
  options.app = &app;
  options.params.nprocs = nprocs;
  options.params.problem_scale = 0.15;
  options.policy = Policy::kDynamic;
  return options;
}

TEST(Tool, InsertBeforeStartIsDeferredUntilAfterMpiInit) {
  Launch launch(small_run(asci::sppm(), 4));
  DynprofTool::Options topt;
  topt.command_files = {{"subset.txt", asci::sppm().dynamic_list}};
  DynprofTool tool(launch, std::move(topt));
  tool.run_script(parse_script("insert-file subset.txt\nstart\nquit\n"));
  launch.engine().run();

  EXPECT_TRUE(tool.finished());
  EXPECT_EQ(tool.instrumented_function_count(), asci::sppm().dynamic_list.size());
  // Every rank's image carries entry+exit probes on each subset function.
  for (const auto& process : launch.job().processes()) {
    for (const auto& name : asci::sppm().dynamic_list) {
      const auto fn = process->image().symbols().find(name)->id;
      EXPECT_TRUE(
          process->image().probe_point(fn, image::ProbeWhere::kEntry).has_base_trampoline());
      EXPECT_TRUE(
          process->image().probe_point(fn, image::ProbeWhere::kExit).has_base_trampoline());
    }
  }
}

TEST(Tool, TimefileRecordsAllPhases) {
  Launch launch(small_run(asci::sppm(), 2));
  DynprofTool tool(launch, {});
  tool.run_script(parse_script("start\nquit\n"));
  launch.engine().run();

  std::vector<std::string> phases;
  for (const auto& rec : tool.timefile()) phases.push_back(rec.phase);
  EXPECT_EQ(phases,
            (std::vector<std::string>{"poe-create", "dpcl-connect", "install-init-hook",
                                      "await-init-callbacks", "install-probes",
                                      "release-spin"}));
  for (const auto& rec : tool.timefile()) {
    EXPECT_GE(rec.duration, 0) << rec.phase;
  }
  const std::string text = tool.timefile_text();
  EXPECT_NE(text.find("poe-create"), std::string::npos);
}

TEST(Tool, CreateAndInstrumentTimeGrowsWithProcessCount) {
  // Figure 9: MPI applications take longer to create+instrument as the
  // number of processes grows.
  auto instrument_time = [](int nprocs) {
    Launch launch(small_run(asci::sppm(), nprocs));
    DynprofTool::Options topt;
    topt.command_files = {{"s", asci::sppm().dynamic_list}};
    DynprofTool tool(launch, std::move(topt));
    tool.run_script(parse_script("insert-file s\nstart\nquit\n"));
    launch.engine().run();
    return tool.create_and_instrument_time();
  };
  const auto t2 = instrument_time(2);
  const auto t16 = instrument_time(16);
  EXPECT_GT(t16, t2);
}

TEST(Tool, OpenMpInstrumentationUsesVtInitHook) {
  Launch launch(small_run(asci::umt98(), 4));
  DynprofTool::Options topt;
  topt.command_files = {{"s", asci::umt98().dynamic_list}};
  DynprofTool tool(launch, std::move(topt));
  tool.run_script(parse_script("insert-file s\nstart\nquit\n"));
  launch.engine().run();
  EXPECT_TRUE(tool.finished());
  // Single shared image: the probes exist on the one process.
  const auto& img = launch.job().process(0).image();
  const auto vt_init = img.symbols().find("VT_init")->id;
  EXPECT_TRUE(img.probe_point(vt_init, image::ProbeWhere::kExit).has_base_trampoline());
}

TEST(Tool, MidRunInsertSuspendsPatchesAndResumes) {
  Launch launch(small_run(asci::sppm(), 2));
  DynprofTool::Options topt;
  topt.command_files = {{"s", {"sppm_hydro_x"}}};
  DynprofTool tool(launch, std::move(topt));
  // Start uninstrumented, wait 1 virtual second, then instrument one
  // function mid-run, then remove it again -- both while the ~5.8 s main
  // computation is still running (a request to an exited target fails
  // instead of suspending the corpse).
  tool.run_script(parse_script("start\nwait 1\ninsert sppm_hydro_x\nwait 1\n"
                               "remove sppm_hydro_x\nquit\n"));
  launch.engine().run();
  EXPECT_TRUE(tool.finished());
  EXPECT_EQ(tool.instrumented_function_count(), 0u);
  // Processes were suspended twice (insert + remove).
  EXPECT_GE(launch.job().process(0).suspend_count(), 2u);
  // All probes removed again.
  const auto fn = launch.job().process(0).image().symbols().find("sppm_hydro_x")->id;
  EXPECT_FALSE(launch.job()
                   .process(0)
                   .image()
                   .probe_point(fn, image::ProbeWhere::kEntry)
                   .has_base_trampoline());
}

TEST(Tool, MidRunInsertedProbesProduceTraceEvents) {
  Launch launch(small_run(asci::sweep3d(), 2));
  DynprofTool::Options topt;
  DynprofTool tool(launch, std::move(topt));
  tool.run_script(parse_script("start\nwait 30\ninsert sweep\nquit\n"));
  launch.engine().run();
  // The sweep function was instrumented mid-run: enter/leave events for it
  // appear in the trace.
  const auto fn = launch.job().process(0).image().symbols().find("sweep")->id;
  int enters = 0;
  for (const auto& e : launch.trace()->merged()) {
    if (e.kind == vt::EventKind::kEnter && e.code == static_cast<std::int32_t>(fn)) ++enters;
  }
  EXPECT_GT(enters, 0);
}

TEST(Tool, UnknownFunctionNameFailsTheRun) {
  Launch launch(small_run(asci::sppm(), 2));
  DynprofTool tool(launch, {});
  tool.run_script(parse_script("insert no_such_function\nstart\nquit\n"));
  EXPECT_THROW(launch.engine().run(), Error);
}

TEST(Tool, UnknownCommandFileFailsTheRun) {
  Launch launch(small_run(asci::sppm(), 2));
  DynprofTool tool(launch, {});
  tool.run_script(parse_script("insert-file no_such_file\nstart\nquit\n"));
  try {
    launch.engine().run();
    FAIL() << "expected an unknown-command-file error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown command file 'no_such_file'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Tool, RemoveBeforeStartFailsTheRun) {
  Launch launch(small_run(asci::sppm(), 2));
  DynprofTool tool(launch, {});
  tool.run_script(parse_script("remove sppm_hydro_x\nstart\nquit\n"));
  EXPECT_THROW(launch.engine().run(), Error);
}

TEST(Tool, AppMakesNoProgressWhileSpinning) {
  // Between the callback and the spin release, every rank sits in
  // DYNVT_spin: init_complete must come after the release.
  Launch launch(small_run(asci::sppm(), 4));
  DynprofTool::Options topt;
  topt.command_files = {{"s", asci::sppm().dynamic_list}};
  DynprofTool tool(launch, std::move(topt));
  tool.run_script(parse_script("insert-file s\nstart\nquit\n"));
  launch.engine().run();
  // The app's main computation started only once create+instrument was
  // (nearly) over -- the tool-side timestamp trails the ranks' release by
  // one ack flight, so allow that much skew.
  EXPECT_GE(launch.init_complete_time(),
            tool.create_and_instrument_time() - sim::milliseconds(1));
  EXPECT_GT(launch.init_complete_time(), sim::seconds(10));  // poe + attach dominated
}

}  // namespace
}  // namespace dyntrace::dynprof
