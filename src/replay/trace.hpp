// Text trace ingestion: recorded MPI call streams replayed as first-class
// instrumented applications (ROADMAP item 4; docs/TRACE_REPLAY.md).
//
// The vocabulary is the DUMPI `dumpi_function` enum (the de-facto trace
// interchange list; SNIPPETS.md §3) spelled with the MPI_* names.  A trace
// is one directive header plus one line per event:
//
//     ranks 4                      # required, before any event
//     app ring                     # optional app name (default "replay")
//     subset ring_compute          # optional Subset/Dynamic function list
//     0 0ms call fn=ring_compute work=2ms
//     0 2ms MPI_Send dst=1 tag=7 bytes=4096 dur=30us
//     1 0ms MPI_Recv src=0 tag=7
//     2 1ms MPI_Barrier
//     3 5ms sync                   # safe-point offer (VT_confsync cadence)
//
// Event lines are `<rank> <timestamp> <verb> [key=value ...]`; timestamps
// are the *recorded* times relative to the rank's MPI_Init exit, must be
// non-decreasing per rank, and accept the ns/us/ms/s suffixes the fault
// plans use.  The gap between a rank's cursor and the next event's
// timestamp replays as raw compute; `call` advances the cursor by
// count x work, and MPI verbs by their optional recorded `dur=` (the
// *simulated* cost of the MPI call itself is re-derived from the machine
// model, which is the point of replaying rather than re-plotting).
//
// Unsupported-verb policy: a verb in the DUMPI vocabulary but outside the
// replayed subset (MPI_Ssend, MPI_Type_commit, ...) is skipped and counted
// (ReplayTrace::skipped_events) by default, or rejected under
// ParseOptions::strict; a token that is not in the vocabulary at all is
// always a parse error.
//
// Well-formedness is checked at parse time so replays cannot deadlock:
// point-to-point sends and receives must pair up exactly per
// (src, dst, tag), every request id must be waited exactly once, and all
// ranks must record identical collective/sync sequences.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace dyntrace::replay {

/// The replayed subset of the DUMPI vocabulary, plus the two local verbs
/// (`call` compute phases and `sync` safe-point offers).
enum class Verb : std::uint8_t {
  kCall,      ///< compute phase attributed to a named function
  kSync,      ///< safe-point offer (AppContext::safe_point)
  kSend,      ///< MPI_Send
  kRecv,      ///< MPI_Recv
  kIsend,     ///< MPI_Isend (req= handle)
  kIrecv,     ///< MPI_Irecv (req= handle)
  kWait,      ///< MPI_Wait (req= handle)
  kWaitall,   ///< MPI_Waitall (req= comma-separated handles)
  kSendrecv,  ///< MPI_Sendrecv
  kBarrier,   ///< MPI_Barrier
  kBcast,     ///< MPI_Bcast
  kReduce,    ///< MPI_Reduce
  kAllreduce, ///< MPI_Allreduce
  kGather,    ///< MPI_Gather
  kScatter,   ///< MPI_Scatter
  kAlltoall,  ///< MPI_Alltoall
};

const char* to_string(Verb verb);

/// True when `name` is in the DUMPI `dumpi_function` vocabulary (whether
/// replayed or skip-counted).  `call` / `sync` are not MPI names and are
/// handled separately.
bool in_dumpi_vocabulary(std::string_view name);

struct ReplayEvent {
  Verb verb = Verb::kCall;
  sim::TimeNs at = 0;    ///< recorded timestamp (relative to MPI_Init exit)
  sim::TimeNs dur = 0;   ///< recorded duration (cursor advance; MPI verbs)
  std::string fn;        ///< kCall: function name
  sim::TimeNs work = 0;  ///< kCall: per-call work
  std::int64_t count = 1;///< kCall: calls charged (leaf_repeat when > 1)
  int peer = -1;         ///< dst (sends) / src (recvs) / root (collectives)
  int src = -1;          ///< kSendrecv: receive-side source
  int tag = 0;
  std::int64_t bytes = 0;
  std::vector<std::string> reqs;  ///< request handles (isend/irecv/wait/waitall)
};

/// The largest world a trace may declare: 16x the largest simulated sweep
/// (4096 ranks).  A larger `ranks` is rejected when parsed, before any
/// per-rank state is sized.
inline constexpr int kMaxRanks = 65536;

struct ParseOptions {
  /// Reject recognized-but-unreplayed DUMPI verbs instead of skip-counting.
  bool strict = false;
};

struct ReplayTrace {
  std::string app_name = "replay";
  int ranks = 0;
  /// Subset/Dynamic list: the `subset` directive, or every `call` function
  /// when the directive is absent.
  std::vector<std::string> subset;
  /// Unique `call` function names in first-appearance order (the replayed
  /// app's user-function inventory).
  std::vector<std::string> call_functions;
  /// Per-rank event streams, each non-decreasing in `at`.
  std::vector<std::vector<ReplayEvent>> events;
  /// Events skipped under the non-strict unsupported-verb policy, and the
  /// distinct verb names involved (first-appearance order).
  std::uint64_t skipped_events = 0;
  std::vector<std::string> skipped_verbs;

  /// Parse the text format; throws dyntrace::Error naming `origin` and the
  /// line on malformed input (see the well-formedness rules above).
  static ReplayTrace parse(std::string_view text, const std::string& origin = "<trace>",
                           ParseOptions options = {});

  /// Load a trace file from disk.
  static ReplayTrace load(const std::string& path, ParseOptions options = {});
};

}  // namespace dyntrace::replay
