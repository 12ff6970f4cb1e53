// Scenario harness for the multi-tenant control service: one shared target
// job (a synthetic MPI application), one persistent dynprof attachment, one
// ControlService, and N simulated user sessions issuing deterministic
// command scripts from client nodes.  Used by the service tests and
// bench/service_sessions.
//
// The synthetic application ("svcapp") runs an open-ended iteration loop --
// rotating leaf work over its function inventory, a collective reduction,
// and a safe-point offer per iteration -- and exits *collectively* when a
// shutdown sentinel function is filter-deactivated: the service stages the
// directive, VT_confsync applies it on every rank at the same safe point,
// and all ranks observe it at the same iteration.  Flag-based shutdown
// would reach ranks at different times and hang the collective; the
// sentinel uses the paper's own §5 machinery instead.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "asci/app.hpp"
#include "fault/injector.hpp"
#include "service/service.hpp"

namespace dyntrace::service {

/// Build the synthetic service-target application with `functions` user
/// functions ("svc_fn_00" ...).  The returned spec owns its symbols; keep
/// it alive for the Launch's lifetime.
asci::AppSpec make_svcapp(int functions);

struct ScenarioOptions {
  int ranks = 8;
  int functions = 32;
  int sessions = 64;
  /// Client nodes used round-robin, starting one above the tool node.
  int session_nodes = 16;
  /// Commands between the implicit attach and detach of generated scripts.
  int commands_per_session = 4;
  /// Must be 1.  Kept only for perfbench/driver.cpp; the next change to
  /// the benchmark removes it.
  int sim_threads = 1;
  std::uint64_t seed = 42;
  double problem_scale = 1.0;
  int confsync_interval = 2;
  ServiceOptions service;
  /// Sessions driven per driver coroutine (sequentially).  1 = one
  /// coroutine + mailbox per session (the legacy shape); the 100k-session
  /// bench batches hundreds per driver so memory stays flat in sessions.
  int session_batch = 1;
  /// Commands one session keeps in flight before waiting (its detach still
  /// drains the window first).  >1 exercises the service's per-session
  /// overload bounds; 1 is the legacy lock-step driver.
  int pipeline_depth = 1;
  /// Gap between consecutive sessions' start gates.
  sim::TimeNs session_stagger = sim::microseconds(50);
  /// Driver-side deadline per command; a missing response becomes an
  /// explicit kTimeout outcome, never a hang.
  sim::TimeNs response_timeout = sim::seconds(240);
  std::shared_ptr<fault::FaultInjector> fault;
  telemetry::Level telemetry_level = telemetry::default_level();
  /// Non-empty: run exactly these scripts (outer index = session id)
  /// instead of generated ones.  kAttach/kDetach are added automatically;
  /// entries only need kind + payload.
  std::vector<std::vector<Request>> scripted_sessions;
};

struct ScenarioResult {
  struct CommandOutcome {
    CommandKind kind = CommandKind::kAttach;
    Status status = Status::kOk;
    sim::TimeNs latency = 0;
  };
  struct SessionOutcome {
    SessionId id = 0;
    int node = 0;
    std::vector<CommandOutcome> commands;
    std::uint64_t deltas = 0;       ///< subscription deltas received
    std::uint64_t delta_pairs = 0;  ///< event pairs summarised across them
  };

  std::vector<SessionOutcome> sessions;  ///< session-id order
  std::vector<WindowRecord> windows;
  std::map<Status, std::uint64_t> status_counts;
  std::uint64_t commands = 0;
  std::vector<sim::TimeNs> latencies;  ///< every command's latency

  /// Sessions burst-admitted by `storm` fault actions (included in
  /// `sessions`, after the configured ones).
  std::size_t storm_sessions = 0;
  /// Overload-protection counters (ControlService accessors).
  std::uint64_t shed_commands = 0;
  std::uint64_t deadline_cancels = 0;
  std::uint64_t fairshare_flips = 0;
  std::uint64_t sub_drops = 0;
  /// AdmissionController::admit calls over the run (an op count for the
  /// bench's per-command gate; not part of `digest`).
  std::uint64_t admission_evals = 0;
  /// Admission-queue entries examined by retry passes (an op count for the
  /// bench's per-command gate; not part of `digest`).
  std::uint64_t queue_visits = 0;

  /// priced_after <= budget (or at_floor) held in every window.
  bool budget_ok = true;
  std::size_t budget_violations = 0;

  /// Final rank-0 filter state (function ids deactivated), sentinel
  /// included -- the satellite-3 serialization assertions read this.
  std::vector<image::FunctionId> rank0_deactivated;
  std::vector<int> lost_ranks;

  double sim_seconds = 0;
  double host_seconds = 0;
  std::uint64_t stats_digest = 0;
  /// FNV-1a over outcomes, windows, filter state -- the run-to-run
  /// determinism fingerprint.
  std::uint64_t digest = 0;
};

ScenarioResult run_scenario(const ScenarioOptions& options);

}  // namespace dyntrace::service
