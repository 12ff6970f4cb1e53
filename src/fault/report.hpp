// Run report for fault-tolerant runs: what broke, what the stack did
// about it, and which ranks were affected.
//
// All ordering-sensitive output is sorted by (virtual time, kind, detail,
// ranks) at read time, so the rendered report does not depend on append
// order.  Like the rest of a run, a report lives on the run's thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace dyntrace::fault {

class RunReport {
 public:
  struct Entry {
    sim::TimeNs time = 0;
    std::string kind;        ///< "daemon-lost", "rank-lost", "partial-sync", "degrade", ...
    std::string detail;      ///< human-readable specifics
    std::vector<int> ranks;  ///< affected ranks (sorted), empty when n/a
  };

  RunReport() = default;
  RunReport(const RunReport&) = delete;
  RunReport& operator=(const RunReport&) = delete;

  /// Append one entry (ranks are sorted on the way in).
  void add(sim::TimeNs time, std::string kind, std::string detail, std::vector<int> ranks = {});

  bool empty() const;
  std::size_t size() const;

  /// All entries, deterministically sorted.
  std::vector<Entry> entries() const;

  /// Union of ranks across "daemon-lost" / "rank-lost" entries, sorted.
  std::vector<int> lost_ranks() const;

  /// Human-readable rendering (one line per entry).
  std::string render() const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace dyntrace::fault
