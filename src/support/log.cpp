#include "support/log.hpp"

#include <cstdio>
#include <mutex>

namespace dyntrace::log {

namespace {

Level g_threshold = Level::kWarn;
Sink g_sink;
std::mutex g_mutex;  ///< kept on purpose: the sink is process-global, shared by every thread

const char* level_name(Level level) {
  switch (level) {
    case Level::kTrace: return "TRACE";
    case Level::kDebug: return "DEBUG";
    case Level::kInfo:  return "INFO ";
    case Level::kWarn:  return "WARN ";
    case Level::kError: return "ERROR";
    case Level::kOff:   return "OFF  ";
  }
  return "?????";
}

}  // namespace

Level threshold() { return g_threshold; }
void set_threshold(Level level) { g_threshold = level; }

void set_sink(Sink sink) {
  std::lock_guard lock(g_mutex);
  g_sink = std::move(sink);
}

void write(Level level, std::string_view component, std::string_view message) {
  std::lock_guard lock(g_mutex);
  if (g_sink) {
    std::string line;
    line.reserve(component.size() + message.size() + 4);
    line.append(component).append(": ").append(message);
    g_sink(level, line);
    return;
  }
  std::fprintf(stderr, "[%s] %.*s: %.*s\n", level_name(level),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(message.size()), message.data());
}

}  // namespace dyntrace::log
