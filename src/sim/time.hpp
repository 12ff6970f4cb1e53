// Simulated time.
//
// All simulation timestamps and durations are signed 64-bit nanosecond
// counts.  2^63 ns is ~292 years of virtual time, far beyond any run here.
#pragma once

#include <cstdint>
#include <string>

namespace dyntrace::sim {

using TimeNs = std::int64_t;

inline constexpr TimeNs kNanosecond = 1;
inline constexpr TimeNs kMicrosecond = 1'000;
inline constexpr TimeNs kMillisecond = 1'000'000;
inline constexpr TimeNs kSecond = 1'000'000'000;

constexpr TimeNs nanoseconds(double n) { return static_cast<TimeNs>(n); }
constexpr TimeNs microseconds(double us) { return static_cast<TimeNs>(us * 1e3); }
constexpr TimeNs milliseconds(double ms) { return static_cast<TimeNs>(ms * 1e6); }
constexpr TimeNs seconds(double s) { return static_cast<TimeNs>(s * 1e9); }

constexpr double to_seconds(TimeNs t) { return static_cast<double>(t) * 1e-9; }
constexpr double to_milliseconds(TimeNs t) { return static_cast<double>(t) * 1e-6; }
constexpr double to_microseconds(TimeNs t) { return static_cast<double>(t) * 1e-3; }

/// Human-readable rendering with an adaptive unit ("1.250 ms", "3.2 s").
std::string format_duration(TimeNs t);

/// Parse a time value from an input file: a non-negative decimal number
/// with an optional unit (ns, us, ms or s; none means ns), e.g. "250ms" or
/// "1.5s".  Fails closed: a malformed, negative, or out-of-range value (one
/// whose nanoseconds do not fit TimeNs) throws dyntrace::Error prefixed
/// with `where` (origin:line).
TimeNs parse_time(const std::string& text, const std::string& where);

}  // namespace dyntrace::sim
