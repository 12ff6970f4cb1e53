// Text time-line rendering: an ASCII stand-in for the VGV main time-line
// display (paper Figure 4): one row per process, time bucketed into
// columns, each cell classified by what the process was doing.
#pragma once

#include <string>

#include "vt/trace_store.hpp"

namespace dyntrace::analysis {

/// Render the job time-line, 72 columns wide ('M' = inside an MPI call,
/// 'o' = inside an OpenMP region, '=' = in a user function, '.' = no
/// activity); returns "" for an empty trace.
std::string render_timeline(const vt::TraceStore& store);

}  // namespace dyntrace::analysis
