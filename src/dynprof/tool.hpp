// DynprofTool: the dynamic instrumenter (paper §3.3-§3.4).
//
// dynprof spawns the target application through POE (suspended at its first
// instruction), connects to it through DPCL, and immediately installs the
// initialization snippet of Figure 6 at the exit of MPI_Init (MPI apps) or
// VT_init (OpenMP apps):
//
//     MPI_Barrier(); DPCL_callback(); DYNVT_spin(); MPI_Barrier();
//
// Insert/remove commands issued before initialization completes are queued;
// once every process has reported in via the callback, the queued probes
// are installed (the application meanwhile spins), the spin flags are
// released -- with differing per-node delays, which is why the snippet ends
// in a re-synchronizing barrier -- and the application proceeds.
//
// Mid-run insert/remove commands suspend all processes, patch, and resume,
// as described in §3.4.  All internal phases are timed into the "timefile"
// (Figure 9 reports create+instrument).
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dpcl/application.hpp"
#include "dynprof/command.hpp"
#include "dynprof/launch.hpp"
#include "sim/sync.hpp"

namespace dyntrace::dynprof {

class DynprofTool {
 public:
  struct Options {
    /// Node the tool runs on; -1 = first node after the application's.
    int tool_node = -1;
    /// Simulated pid of the tool process.  Multi-job scenarios give each
    /// job's tool a distinct pid so process identities stay unique.
    int tool_pid = 100000;
    /// Map command-file names to function lists (stands in for the text
    /// files an interactive user would pass to insert-file/remove-file).
    std::vector<std::pair<std::string, std::vector<std::string>>> command_files;
  };

  struct TimeRecord {
    std::string phase;
    sim::TimeNs start = 0;
    sim::TimeNs duration = 0;
  };

  DynprofTool(Launch& launch, Options options);
  ~DynprofTool();
  DynprofTool(const DynprofTool&) = delete;
  DynprofTool& operator=(const DynprofTool&) = delete;

  /// Queue a script for execution and spawn the tool process; call before
  /// Engine::run().  The commands run concurrently with the application.
  void run_script(std::vector<Command> script);

  // --- persistent service mode ----------------------------------------------
  //
  // The one-shot script path above creates, instruments, and quits; a
  // control service instead holds the attachment open for its whole
  // lifetime.  start_service() runs the same create/connect/init protocol,
  // fires attached(), then parks until request_detach() -- all
  // insert/remove traffic in between goes through the programmatic
  // insert_functions()/remove_functions() calls below.

  /// Spawn the persistent tool coroutine; call before Engine::run(),
  /// mutually exclusive with run_script().
  void start_service();

  /// Fires once the application is created, instrumented, and released
  /// into main() -- i.e. once programmatic insert/remove calls become valid.
  sim::Trigger& attached() { return *attached_; }

  /// End a start_service() session: detach from the job, leaving active
  /// instrumentation in place (§3.3).  Call after attached() has fired.
  void request_detach() { detach_requested_->fire(); }

  /// The internal timings dynprof writes to its timefile.
  const std::vector<TimeRecord>& timefile() const { return timefile_; }
  std::string timefile_text() const;

  /// Figure 9's metric: wall time from tool start until every process was
  /// created, connected, instrumented and released into main().
  sim::TimeNs create_and_instrument_time() const { return create_and_instrument_; }

  bool finished() const { return finished_; }
  dpcl::DpclApplication* application() { return app_.get(); }

  /// Number of functions currently carrying dynamically inserted probes.
  std::size_t instrumented_function_count() const { return instrumented_.size(); }
  const std::vector<std::string>& instrumented_functions() const { return instrumented_; }

  /// One node's drop down the instrumentation ladder: a node abandoned mid-install keeps whatever probes already went
  /// in -- Dynamic -> Subset -- and a node lost before anything was
  /// installed runs uninstrumented, Dynamic -> None.  Each drop is also a
  /// "degrade" entry in the injector's run report.
  struct Degradation {
    sim::TimeNs time = 0;
    int node = -1;
    std::vector<int> ranks;  ///< pids on the node, ascending
    Policy from = Policy::kDynamic;
    Policy to = Policy::kNone;
  };
  const std::vector<Degradation>& degradations() const { return degradations_; }

  // --- programmatic control (used by controllers such as HybridController) --
  //
  // Valid once the application is running (after `start`); each call
  // suspends all processes, patches, and resumes.

  sim::Coro<void> insert_functions(const std::vector<std::string>& names);
  sim::Coro<void> remove_functions(const std::vector<std::string>& names);

  proc::SimThread& tool_thread() { return tool_process_->main_thread(); }

 private:
  sim::Coro<void> tool_main(std::vector<Command> script);
  sim::Coro<void> service_main();
  sim::Coro<void> create_and_connect(proc::SimThread& tool);
  sim::Coro<void> install_init_hook(proc::SimThread& tool);
  sim::Coro<void> await_init_and_release(proc::SimThread& tool);
  sim::Coro<void> do_insert(proc::SimThread& tool, const std::vector<std::string>& names);
  sim::Coro<void> do_remove(proc::SimThread& tool, const std::vector<std::string>& names);
  std::vector<std::string> resolve_file(const std::string& filename) const;
  image::FunctionId resolve(const std::string& name) const;
  /// Record ladder drops for nodes newly abandoned by the dpcl layer;
  /// `had_probes` decides Subset vs None.
  void note_degraded_nodes(sim::TimeNs now, bool had_probes);

  void begin_phase(const std::string& name);
  void end_phase();

  Launch& launch_;
  Options options_;
  int tool_node_ = 0;

  std::unique_ptr<proc::SimProcess> tool_process_;
  std::vector<std::unique_ptr<dpcl::SuperDaemon>> super_daemons_;
  std::unique_ptr<dpcl::DpclApplication> app_;
  /// Service-mode lifecycle (constructed after tool_process_, whose engine
  /// they live on).
  std::optional<sim::Trigger> attached_;
  std::optional<sim::Trigger> detach_requested_;

  bool started_app_ = false;
  bool init_released_ = false;
  bool finished_ = false;
  std::vector<std::string> pending_inserts_;
  std::vector<std::string> instrumented_;
  std::set<int> degraded_nodes_;
  std::set<int> quarantine_dropped_;  ///< nodes with an active (reversible) quarantine drop
  std::vector<Degradation> degradations_;

  std::vector<TimeRecord> timefile_;
  sim::TimeNs phase_start_ = 0;
  std::string phase_name_;
  sim::TimeNs tool_start_time_ = 0;
  sim::TimeNs create_and_instrument_ = 0;
};

}  // namespace dyntrace::dynprof
