// Machine specifications: the hardware/OS parameters the simulation charges
// time against.
//
// Two built-in profiles mirror the paper's testbeds:
//   * ibm_power3_sp()    — 144-node IBM SP, 8x 375 MHz Power3 per node,
//                          4 GB/node, Colony switch, AIX 5.1 + POE (§4.1)
//   * ia32_linux_cluster() — 16-node IA32 Pentium III Linux cluster with
//                          fast Ethernet (§5, Figure 8c)
//
// Every cost here is a *model parameter*, not a measurement; values are
// chosen to land the reproduced figures in the paper's reported ranges
// (see DESIGN.md §5).  All can be overridden from an INI profile.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "support/config.hpp"

namespace dyntrace::machine {

/// Per-operation software costs of the instrumentation stack on a given
/// machine (charged by the VT library and the trampoline executor).
struct CostModel {
  // --- Vampirtrace library -------------------------------------------------
  // Calibrated for a 375 MHz Power3 (see DESIGN.md §5): a traced event pays
  // clock read + record append + its amortised share of trace-file I/O
  // (~1.5 us/event pair side); a deactivated probe pays only the call and
  // one table lookup (~0.19 us) -- the ratio between those two is what
  // separates Full from Full-Off in Figure 7.
  sim::TimeNs vt_timestamp = 350;      ///< read the high-resolution clock
  sim::TimeNs vt_record = 700;         ///< append one event record to the buffer
  sim::TimeNs vt_filter_lookup = 150;  ///< deactivation-table lookup in VT_begin/end
  sim::TimeNs vt_call_overhead = 40;   ///< call/return into the VT library
  sim::TimeNs vt_funcdef = 2'500;      ///< register a symbol (first call only)
  sim::TimeNs vt_flush_per_record = 400;///< trace-file I/O, amortised per record
  // VT_confsync: fixed library bookkeeping per sync, plus per-process OS
  // scheduling noise (exponential; the max over P ranks grows ~ln P, which
  // is what gives Figure 8(a) its gentle climb on the real machine).
  sim::TimeNs vt_confsync_entry = 3'000'000;      ///< fixed software cost
  sim::TimeNs vt_confsync_noise_mean = 3'500'000; ///< per-process noise mean
  // Runtime-statistics path of VT_confsync (experiment 3 / Figure 8b) and
  // the control-plane reduction overlay built on top of it.
  sim::TimeNs vt_stats_write_per_record = 2'200;  ///< format+write one stat record at rank 0
  sim::TimeNs vt_stats_merge_per_record = 150;    ///< combine one record at an interior rank
  std::int64_t vt_stats_bytes_per_func = 48;      ///< serialized stat record size
  // --- dynamic instrumentation trampolines ---------------------------------
  sim::TimeNs tramp_jump = 8;          ///< patched jump + jump back
  sim::TimeNs tramp_save_regs = 60;    ///< save volatile registers
  sim::TimeNs tramp_restore_regs = 60; ///< restore volatile registers
  sim::TimeNs tramp_mini_dispatch = 10;///< chain jump into one mini-trampoline
  sim::TimeNs tramp_relocated_insn = 4;///< execute the displaced instruction
  // --- DPCL middleware ------------------------------------------------------
  // Calibrated so Figure 9 lands in the paper's range: creation +
  // instrumentation is dominated by POE job launch and per-process DPCL
  // attach/parse (both grow with process count), with per-probe patching a
  // second-order term.
  sim::TimeNs dpcl_daemon_dispatch = 180'000;   ///< daemon handles one request
  sim::TimeNs dpcl_patch_per_probe = 3'000'000; ///< ptrace pokes for one probe
  sim::TimeNs dpcl_parse_image = 450'000'000;   ///< read + analyse one process image
  sim::TimeNs dpcl_connect = 250'000'000;       ///< authenticate + attach one process
  sim::TimeNs dpcl_suspend_resume = 2'500'000;  ///< stop/continue one process
  // --- process startup ------------------------------------------------------
  sim::TimeNs poe_spawn_base = 12'000'000'000;  ///< start the parallel job
  sim::TimeNs poe_spawn_per_proc = 1'600'000'000; ///< load one process image
};

/// Knobs of the fault-tolerant control plane (DESIGN.md §9).  No healthy
/// run reaches a deadline or opens a breaker, so they only shape runs with
/// a fault plan.
struct FaultTolerance {
  sim::TimeNs request_deadline = sim::seconds(20);   ///< per-node DPCL request ack deadline
  int request_max_retries = 3;                       ///< resends before a node is abandoned
  sim::TimeNs retry_backoff_base = sim::milliseconds(250);  ///< doubled per attempt
  sim::TimeNs overlay_child_timeout = sim::milliseconds(500);///< per-child reduce wait
  sim::TimeNs init_callback_timeout = sim::seconds(30);      ///< VT-init callback wait
  double sync_quorum = 1.0;  ///< fraction of ranks required for a full sync

  // --- gray-failure health scoring + circuit breaker (DESIGN.md §14) -------
  // Every request attempt feeds the node's HealthTracker: an
  // on-time ack scores min(1, latency_ref / latency), a deadline miss
  // scores 0, blended by EWMA with weight health_alpha.  The breaker opens
  // on breaker_failure_threshold *consecutive* misses or when the score
  // sinks below breaker_score_floor; while open, steady-state broadcasts
  // quarantine the node (degradation ladder) instead of waiting out its
  // retries.  After breaker_cooldown the next request is a single-attempt
  // half-open probe: an ack closes the breaker, a miss re-opens it.
  double health_alpha = 0.5;            ///< EWMA weight of the newest sample
  sim::TimeNs health_latency_ref = sim::milliseconds(500);  ///< "healthy" ack latency scale
  int breaker_failure_threshold = 3;    ///< consecutive misses that open the breaker
  double breaker_score_floor = 0.2;     ///< EWMA score below which the breaker opens
  sim::TimeNs breaker_cooldown = sim::seconds(10);  ///< open -> half-open wait
};

/// A cluster profile: topology plus timing parameters.
struct MachineSpec {
  std::string name = "generic";
  int nodes = 1;
  int cpus_per_node = 1;
  double cpu_mhz = 1000.0;
  double memory_gb_per_node = 4.0;

  // Inter-node interconnect (one-way, per message).
  sim::TimeNs link_latency = sim::microseconds(20);
  double bandwidth_bytes_per_us = 350.0;  ///< inter-node bandwidth
  sim::TimeNs per_message_software = sim::microseconds(2);

  // Intra-node (shared memory) transfer.
  sim::TimeNs intra_latency = sim::microseconds(1);
  double intra_bandwidth_bytes_per_us = 4000.0;

  /// Relative jitter applied to message latencies (models OS noise and the
  /// differing daemon contact delays the paper discusses); 0 disables.
  double latency_jitter = 0.08;

  /// Multi-tenant contention surcharge (DESIGN.md §15): a message touching
  /// a node shared by T registered jobs pays (1 + tenancy_factor * (T-1))
  /// times its base latency -- NIC and switch-port sharing.  Inert (factor
  /// 1) until a multi-job launch registers overlapping job spans.
  double tenancy_factor = 0.35;

  CostModel costs;
  FaultTolerance fault;

  int total_cpus() const { return nodes * cpus_per_node; }

  /// Time for `bytes` to cross between the given nodes (excluding jitter).
  sim::TimeNs transfer_time(int src_node, int dst_node, std::int64_t bytes) const;
};

/// The paper's primary testbed (§4.1).
MachineSpec ibm_power3_sp();

/// The machine a run on `cpus` application CPUs gets by default: the paper's
/// IBM Power3 SP, grown node for node (plus one tool node) when `cpus` does
/// not fit its 1152 CPUs.  Throws dyntrace::Error if the node count would
/// overflow an int.
MachineSpec machine_for_cpus(std::int64_t cpus);

/// The paper's secondary testbed (§5, Fig. 8c).
MachineSpec ia32_linux_cluster();

/// Look up a built-in profile by name ("ibm-power3-sp", "ia32-linux").
/// Throws dyntrace::Error for unknown names.
MachineSpec builtin_profile(const std::string& name);

/// Build a spec from an INI config ([machine], [costs], [fault] sections),
/// starting from the named base profile (key "machine.base", default
/// "generic").  Fails closed: a value outside its key's range -- a
/// negative duration, latency or cost among them -- throws a
/// dyntrace::Error naming the file, the section and the key.
MachineSpec spec_from_config(const ConfigFile& config);

/// The machine a `--machine` flag names: a path ending in ".ini" is read
/// with spec_from_config, anything else is a built-in profile name.
MachineSpec load_profile(const std::string& name_or_path);

}  // namespace dyntrace::machine
