// Wire types of the multi-tenant control service (DESIGN.md §13).
//
// A session is one simulated interactive user attached to a shared target
// job.  Sessions talk to the ControlService with Request/Response pairs
// correlated by (session, seq); every message crosses the cluster as a
// sized payload through Cluster::message_delay, so command latency is the
// paper's daemon-dispatch physics, not a host artifact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "image/symbols.hpp"
#include "vt/filter.hpp"

namespace dyntrace::service {

using SessionId = std::uint32_t;

/// Sentinel session id for directives the service itself stages (admission
/// degrades, budget arbitration flips).  Sorts after every real session, so
/// the service's corrections are applied last at each safe point.
inline constexpr SessionId kServiceSession = 0xffffffffu;

enum class CommandKind : std::uint8_t {
  kAttach = 0,     ///< open the session
  kInstrument,     ///< request probes on a function set (admission-priced)
  kConfsync,       ///< stage filter directives for the next safe point
  kSubscribe,      ///< register a pushed-down event subscription
  kReport,         ///< query service state (immediate)
  kDetach,         ///< close the session, releasing its grants
};

enum class Status : std::uint8_t {
  kOk = 0,
  kAdmitted,    ///< instrument: granted fully active (Dynamic rung)
  kDegraded,    ///< instrument: granted filter-deactivated (Subset rung)
  kDenied,      ///< instrument: would not fit the budget (None rung)
  kError,       ///< malformed request (unknown function, bad pattern, ...)
  kDaemonLost,  ///< the patch hit nodes whose daemon died; see lost_nodes
  kShutdown,    ///< the service is shutting down
  kTimeout,     ///< driver-local: no response before the deadline
  kShed,        ///< overload: a bounded queue was full, command dropped
  kCanceled,    ///< the end-to-end request deadline expired in the service
};

struct Request {
  SessionId session = 0;
  std::uint32_t seq = 0;
  CommandKind kind = CommandKind::kAttach;
  /// kInstrument: requested function names.
  std::vector<std::string> functions;
  /// kConfsync: directives to stage at the next safe point.
  vt::FilterProgram directives;
  /// kSubscribe: glob over function names; only matching functions' events
  /// are pushed to this session.
  std::string pattern;
  /// Where the response goes.
  int client_node = 0;
};

struct Response {
  SessionId session = 0;
  std::uint32_t seq = 0;
  Status status = Status::kOk;
  /// kInstrument: the admission controller's projected per-process
  /// overhead fraction after the grant.
  double projected_fraction = 0.0;
  /// kDaemonLost: nodes whose daemon died during the patch.
  std::vector<int> lost_nodes;
  /// kReport: windows observed so far.
  std::uint64_t windows = 0;
};

/// One pushed subscription delta: the per-window activity of the functions
/// a session subscribed to, fanned out from rank 0's statistics reduction.
struct SubscriptionDelta {
  SessionId session = 0;
  std::uint64_t sync = 0;       ///< safe-point index the delta describes
  std::uint32_t functions = 0;  ///< subscribed functions active this window
  std::uint64_t pairs = 0;      ///< completed + suppressed pairs across them
};

/// Marshalled sizes (what the cluster charges for the transfer).
std::int64_t request_bytes(const Request& request);
std::int64_t response_bytes(const Response& response);
inline constexpr std::int64_t kDeltaBytes = 48;

}  // namespace dyntrace::service
