#include "fault/report.hpp"

#include <algorithm>
#include <tuple>

#include "support/strings.hpp"

namespace dyntrace::fault {

namespace {

bool entry_before(const RunReport::Entry& a, const RunReport::Entry& b) {
  return std::tie(a.time, a.kind, a.detail, a.ranks) < std::tie(b.time, b.kind, b.detail, b.ranks);
}

}  // namespace

void RunReport::add(sim::TimeNs time, std::string kind, std::string detail,
                    std::vector<int> ranks) {
  std::sort(ranks.begin(), ranks.end());
  entries_.push_back(Entry{time, std::move(kind), std::move(detail), std::move(ranks)});
}

bool RunReport::empty() const { return entries_.empty(); }

std::size_t RunReport::size() const { return entries_.size(); }

std::vector<RunReport::Entry> RunReport::entries() const {
  std::vector<Entry> out = entries_;
  std::sort(out.begin(), out.end(), entry_before);
  return out;
}

std::vector<int> RunReport::lost_ranks() const {
  std::vector<int> out;
  for (const auto& entry : entries()) {
    if (entry.kind != "daemon-lost" && entry.kind != "rank-lost") continue;
    out.insert(out.end(), entry.ranks.begin(), entry.ranks.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string RunReport::render() const {
  std::string out;
  for (const auto& entry : entries()) {
    out += str::format("t=%.6fs %-14s %s", sim::to_seconds(entry.time), entry.kind.c_str(),
                       entry.detail.c_str());
    if (!entry.ranks.empty()) {
      out += " ranks=";
      for (std::size_t i = 0; i < entry.ranks.size(); ++i) {
        if (i > 0) out += ",";
        out += str::format("%d", entry.ranks[i]);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace dyntrace::fault
