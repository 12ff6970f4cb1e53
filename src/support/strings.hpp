// Small string utilities shared across the project (trim/split/join plus
// strict numeric parsing with good error messages).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dyntrace::str {

/// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a delimiter character.  Empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on any run of ASCII whitespace; no empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

std::string to_lower(std::string_view s);

/// Strict parsers: the whole (trimmed) string must be consumed.
std::optional<std::int64_t> parse_i64(std::string_view s);
std::optional<std::uint64_t> parse_u64(std::string_view s);  // no sign accepted
std::optional<double> parse_f64(std::string_view s);
std::optional<bool> parse_bool(std::string_view s);  // true/false/yes/no/on/off/1/0

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Glob-style match supporting '*' and '?' (used for probe-name patterns,
/// mirroring the function selection facilities of VT config files).
bool glob_match(std::string_view pattern, std::string_view text);

}  // namespace dyntrace::str
