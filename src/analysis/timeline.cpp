#include "analysis/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "support/strings.hpp"

namespace dyntrace::analysis {

namespace {

constexpr int kColumns = 72;
constexpr char kComputeChar = '=';
constexpr char kMpiChar = 'M';
constexpr char kOmpChar = 'o';
constexpr char kIdleChar = '.';

}  // namespace

std::string render_timeline(const vt::TraceStore& store) {
  // Bounds come from shard metadata (O(shards)); the paint pass streams
  // the merged trace without materializing it.
  sim::TimeNs t0 = 0;
  sim::TimeNs t1 = 0;
  if (!store.time_bounds(&t0, &t1)) return "";
  const sim::TimeNs span = std::max<sim::TimeNs>(1, t1 - t0);
  const int columns = kColumns;

  // Classify per (pid, bucket): priority MPI > OpenMP > compute.
  enum class Cell : std::uint8_t { kIdle = 0, kCompute, kOmp, kMpi };
  std::map<std::int32_t, std::vector<Cell>> rows;

  // Track per-(pid,tid) activity intervals.
  struct State {
    int fn_depth = 0;
    int mpi_depth = 0;
    int omp_depth = 0;
    sim::TimeNs last = 0;
  };
  std::map<std::pair<std::int32_t, std::int32_t>, State> states;

  auto bucket_of = [&](sim::TimeNs t) {
    const auto b = static_cast<int>((t - t0) * columns / span);
    return std::min(columns - 1, std::max(0, b));
  };

  auto paint = [&](std::int32_t pid, sim::TimeNs from, sim::TimeNs to, Cell cell) {
    auto& row = rows[pid];
    if (row.empty()) row.assign(static_cast<std::size_t>(columns), Cell::kIdle);
    for (int b = bucket_of(from); b <= bucket_of(to); ++b) {
      auto& slot = row[static_cast<std::size_t>(b)];
      if (static_cast<int>(cell) > static_cast<int>(slot)) slot = cell;
    }
  };

  auto cursor = store.merge_cursor();
  vt::Event e;
  while (cursor->next(e)) {
    State& st = states[{e.pid, e.tid}];
    // Paint the elapsed interval with the state we were in.
    if (st.mpi_depth > 0) {
      paint(e.pid, st.last, e.time, Cell::kMpi);
    } else if (st.omp_depth > 0) {
      paint(e.pid, st.last, e.time, Cell::kOmp);
    } else if (st.fn_depth > 0) {
      paint(e.pid, st.last, e.time, Cell::kCompute);
    }
    st.last = e.time;
    switch (e.kind) {
      case vt::EventKind::kEnter: ++st.fn_depth; break;
      case vt::EventKind::kLeave: st.fn_depth = std::max(0, st.fn_depth - 1); break;
      case vt::EventKind::kMpiBegin: ++st.mpi_depth; break;
      case vt::EventKind::kMpiEnd: st.mpi_depth = std::max(0, st.mpi_depth - 1); break;
      case vt::EventKind::kParallelBegin:
      case vt::EventKind::kWorkerBegin: ++st.omp_depth; break;
      case vt::EventKind::kParallelEnd:
      case vt::EventKind::kWorkerEnd: st.omp_depth = std::max(0, st.omp_depth - 1); break;
      default: break;
    }
    // Make sure the row exists even for processes with only point events.
    if (rows[e.pid].empty()) {
      rows[e.pid].assign(static_cast<std::size_t>(columns), Cell::kIdle);
    }
  }

  std::ostringstream os;
  os << "time-line: " << sim::format_duration(span) << " across " << rows.size()
     << " process(es); '" << kMpiChar << "'=MPI '" << kOmpChar << "'=OpenMP '" << kComputeChar
     << "'=compute\n";
  for (const auto& [pid, row] : rows) {
    os << str::format("%5d |", pid);
    for (const Cell cell : row) {
      switch (cell) {
        case Cell::kIdle: os << kIdleChar; break;
        case Cell::kCompute: os << kComputeChar; break;
        case Cell::kOmp: os << kOmpChar; break;
        case Cell::kMpi: os << kMpiChar; break;
      }
    }
    os << "|\n";
  }
  return os.str();
}

}  // namespace dyntrace::analysis
