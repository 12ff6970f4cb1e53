#include "service/session.hpp"

namespace dyntrace::service {

std::int64_t request_bytes(const Request& request) {
  std::int64_t bytes = 64;  // header: session, seq, kind, node
  for (const auto& name : request.functions) {
    bytes += static_cast<std::int64_t>(name.size()) + 8;
  }
  for (const auto& directive : request.directives) {
    bytes += static_cast<std::int64_t>(directive.pattern.size()) + 8;
  }
  bytes += static_cast<std::int64_t>(request.pattern.size());
  return bytes;
}

std::int64_t response_bytes(const Response& response) {
  return 64 + 8 * static_cast<std::int64_t>(response.lost_nodes.size());
}

}  // namespace dyntrace::service
