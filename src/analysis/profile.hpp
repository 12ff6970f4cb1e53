// Postmortem trace analysis (the programmatic stand-in for the VGV GUI).
//
// Computes per-function profiles (calls, inclusive/exclusive time) and
// message statistics from a TraceStore, by replaying each process's event
// stream with a call stack -- the same information the VGV time-line and
// profile displays present.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "image/symbols.hpp"
#include "vt/trace_store.hpp"

namespace dyntrace::analysis {

struct FunctionProfile {
  image::FunctionId fn = image::kInvalidFunction;
  std::uint64_t calls = 0;
  sim::TimeNs inclusive = 0;
  sim::TimeNs exclusive = 0;
};

struct MessageStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::uint64_t mpi_calls = 0;
  sim::TimeNs mpi_time = 0;
};

struct ProcessProfile {
  std::int32_t pid = 0;
  std::vector<FunctionProfile> functions;  ///< sorted by inclusive desc
  MessageStats messages;
  sim::TimeNs first_event = 0;
  sim::TimeNs last_event = 0;
  std::uint64_t events = 0;
  std::uint64_t unmatched_leaves = 0;  ///< leave without matching enter
};

/// Folds one process's time-ordered events into its ProcessProfile: call
/// stacks per thread, MPI spans, message counts.
class ProcessReplay {
 public:
  explicit ProcessReplay(std::int32_t pid);
  void add(const vt::Event& e);
  /// The profile, functions sorted by inclusive time descending.
  ProcessProfile finish();

 private:
  struct StackEntry {
    std::int32_t fn;
    std::uint32_t slot;  ///< index of fn's FunctionProfile
    sim::TimeNs entered;
    sim::TimeNs child_time = 0;
  };
  struct ThreadState {
    std::vector<StackEntry> stack;
    bool in_mpi = false;
    sim::TimeNs mpi_begin = 0;
  };
  ThreadState& thread(std::int32_t tid);

  ProcessProfile profile_;
  std::unordered_map<std::int32_t, std::uint32_t> slot_of_fn_;
  /// Node-based, so the cached pointer survives inserts; threads of one
  /// process mostly arrive in runs, so the cache usually hits.
  std::unordered_map<std::int32_t, ThreadState> threads_;
  std::int32_t cached_tid_ = 0;
  ThreadState* cached_thread_ = nullptr;
};

/// Render the top-N functions of a profile (typically aggregate()) with
/// names resolved against `symbols` (ids without a name print as "fn<id>").
std::string render_top_functions(const ProcessProfile& total,
                                 const image::SymbolTable* symbols, std::size_t n);

class TraceAnalyzer {
 public:
  /// Replays every process's shard once.
  explicit TraceAnalyzer(const vt::TraceStore& store);
  /// Adopt profiles replayed elsewhere (in pid order).
  explicit TraceAnalyzer(std::vector<ProcessProfile> processes)
      : processes_(std::move(processes)) {}

  const std::vector<ProcessProfile>& processes() const { return processes_; }
  const ProcessProfile* process(std::int32_t pid) const;

  /// Whole-job aggregate, functions merged across processes.
  ProcessProfile aggregate() const;

  /// render_top_functions() of the aggregate.
  std::string top_functions_table(const image::SymbolTable* symbols, std::size_t n) const;

 private:
  std::vector<ProcessProfile> processes_;
};

}  // namespace dyntrace::analysis
