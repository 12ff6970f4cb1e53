#include "sim/time.hpp"


#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::sim {

std::string format_duration(TimeNs t) {
  const bool negative = t < 0;
  const TimeNs a = negative ? -t : t;
  std::string body;
  if (a < kMicrosecond) {
    body = str::format("%lld ns", static_cast<long long>(a));
  } else if (a < kMillisecond) {
    body = str::format("%.3f us", to_microseconds(a));
  } else if (a < kSecond) {
    body = str::format("%.3f ms", to_milliseconds(a));
  } else {
    body = str::format("%.3f s", to_seconds(a));
  }
  return negative ? "-" + body : body;
}

TimeNs parse_time(const std::string& text, const std::string& where) {
  std::size_t suffix = text.size();
  while (suffix > 0 && !(text[suffix - 1] >= '0' && text[suffix - 1] <= '9')) --suffix;
  const std::string number = text.substr(0, suffix);
  const std::string unit = text.substr(suffix);
  double value = 0;
  std::size_t used = 0;
  try {
    value = std::stod(number, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  DT_EXPECT(!number.empty() && used == number.size(), where, ": bad time '", text, "'");
  double scale = 0;
  if (unit.empty() || unit == "ns") {
    scale = 1;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "s") {
    scale = 1e9;
  } else {
    fail(where, ": unknown time unit '", unit, "' (use ns/us/ms/s)");
  }
  DT_EXPECT(value >= 0, where, ": negative time '", text, "'");
  const double ns = value * scale;
  // 2^63 ns is the first value past TimeNs; the cast is only defined below.
  DT_EXPECT(ns < 0x1p63, where, ": time '", text, "' out of range (at most ~292 years)");
  return static_cast<TimeNs>(ns);
}

}  // namespace dyntrace::sim
