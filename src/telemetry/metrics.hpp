// The cross-layer metric catalog.
//
// Every Registry pre-registers this fixed set of ids at construction so the
// instrumented layers (sim, control, vt, dpcl, fault) can write through
// `current().metrics()` without any per-call name lookup.  Naming follows
// `<layer>.<thing>`; histograms carry a unit suffix where one applies.
#pragma once

#include "telemetry/registry.hpp"

namespace dyntrace::telemetry {

struct Metrics {
  explicit Metrics(Registry& registry);

  // --- sim: engine + event queue --------------------------------------------
  CounterId sim_events;                ///< events dispatched (bulk-added per run)
  CounterId sim_inline_wakeups;        ///< of sim_events, wake-ups run in place (bulk-added)
  CounterId sim_queue_compactions;     ///< heap compaction passes
  CounterId sim_queue_compacted_entries;  ///< dead entries dropped by compaction

  // --- control: confsync, overlay, budget controller ------------------------
  CounterId control_confsync_rounds;   ///< per-rank confsync entries
  CounterId control_overlay_rounds;    ///< completed overlay reductions (root)
  HistogramId control_overlay_fanin_ns;  ///< sim-time from round start to root fan-in
  CounterId control_decisions;         ///< controller decisions recorded
  CounterId control_deactivations;     ///< functions staged out by decisions
  CounterId control_reactivations;     ///< functions staged back in

  // --- vt: library event counts (bulk-added when a run is collected) --------
  CounterId vt_events_recorded;        ///< records appended by VT_begin/VT_end/record
  CounterId vt_synthetic_pairs;        ///< enter/leave pairs charged in aggregate
  CounterId vt_filter_compiles;        ///< filter programs compiled against a symbol table

  // --- vt: sharded trace store ----------------------------------------------
  CounterId vt_spill_runs;             ///< spill runs written
  CounterId vt_spill_bytes;            ///< encoded bytes handed to spill I/O
  CounterId vt_spill_records;          ///< records covered by spill runs
  CounterId vt_torn_shards;            ///< shards that hit a torn tail
  CounterId vt_salvaged_records;       ///< records recovered from torn spills
  CounterId vt_lost_records;           ///< records dropped by salvage
  CounterId vt_suppression_hits;       ///< records folded into super-records
  CounterId vt_suppression_supers;     ///< super-records emitted
  CounterId vt_suppression_evictions;  ///< pattern-table FIFO evictions
  HistogramId vt_bytes_per_event;      ///< encoded bytes/record per spill run

  // --- dpcl: control-plane requests -----------------------------------------
  CounterId dpcl_requests;             ///< requests broadcast
  CounterId dpcl_retries;              ///< per-node retry sends (attempt > 0)
  CounterId dpcl_dedup_hits;           ///< daemon re-acks of completed requests
  CounterId dpcl_dedup_evictions;      ///< completed ids evicted from full dedup tables
  CounterId dpcl_abandoned_nodes;      ///< nodes given up on after max retries

  // --- dpcl: gray-failure health + circuit breaker ---------------------------
  HistogramId dpcl_health_score;       ///< EWMA node health after each sample, x1000
  GaugeId dpcl_breaker_state;          ///< last transition: 0 closed / 1 open / 2 half-open
  CounterId dpcl_breaker_opens;        ///< closed/half-open -> open transitions
  CounterId dpcl_breaker_probes;       ///< half-open probe requests issued
  CounterId dpcl_breaker_closes;       ///< half-open -> closed re-admissions
  CounterId dpcl_breaker_skips;        ///< broadcasts that quarantine-skipped a node

  // --- service: multi-tenant control service ---------------------------------
  GaugeId service_sessions_active;     ///< sessions currently attached
  CounterId service_commands;          ///< commands processed (responses sent)
  CounterId service_admits;            ///< instrument requests admitted fully active
  CounterId service_degrades;          ///< instrument requests admitted filter-degraded
  CounterId service_denials;           ///< instrument requests denied (budget)
  CounterId service_queued;            ///< instrument requests parked in the admission queue
  CounterId service_admission_evals;   ///< AdmissionController::admit calls (fresh + queue retries)
  CounterId service_daemon_lost_errors;///< commands failed with an explicit daemon-lost error
  CounterId service_sub_deliveries;    ///< subscription delta messages pushed to sessions
  CounterId service_sub_events;        ///< event pairs summarised across those deltas
  HistogramId service_command_latency_ns;  ///< request send -> response receipt, per command

  // --- service: overload protection ------------------------------------------
  CounterId service_shed_commands;     ///< commands shed by bounded-queue admission
  CounterId service_deadline_cancels;  ///< commands canceled past their end-to-end deadline
  CounterId service_fairshare_flips;   ///< arbitration flips where fair share overrode price
  CounterId service_sub_drops;         ///< subscription deltas dropped at a full window

  // --- fault: injected fates -------------------------------------------------
  CounterId fault_drops;
  CounterId fault_dups;
  CounterId fault_delays;              ///< messages with a stretched delay
  CounterId fault_tears;               ///< spills truncated mid-write

  // --- span names ------------------------------------------------------------
  SpanName span_confsync;              ///< one rank's confsync round (track = rank)
  SpanName span_reduce;                ///< one overlay reduction (track = rank)
  SpanName span_decision;              ///< instant: controller decision (tool track)

  /// Track number used for tool-side (controller) span events; rank
  /// tracks are numbered from 0, so the tool sits far above them.
  static constexpr std::uint32_t kToolTrack = 1'000'000;
};

}  // namespace dyntrace::telemetry
