// Small string utilities shared across the project (trim/split/join plus
// strict numeric parsing with good error messages).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
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

/// The `key=value` tokens of one line of a text input (fault plans, replay
/// traces).  Each accessor takes its key; finish() rejects a key no
/// accessor took.  Every error names `where` (origin:line).
class KeyValueLine {
 public:
  /// tokens[first..] must each be key=value with a non-empty key.
  KeyValueLine(const std::vector<std::string>& tokens, std::size_t first, std::string where);

  const std::string& where() const { return where_; }

  std::optional<std::string> take(std::string_view key);
  /// take(), or an error saying that `what` needs `key=`.
  std::string require(std::string_view key, std::string_view what);

  /// Strict conversions of a value; an int must fit an int.
  std::int64_t to_i64(const std::string& value) const;
  int to_int(const std::string& value) const;
  double to_f64(const std::string& value) const;

  void apply_int(std::string_view key, int* out);
  void apply_i64(std::string_view key, std::int64_t* out);
  void apply_f64(std::string_view key, double* out);
  /// `*out = parse(value)` when the key is present.
  template <typename T, typename Parse>
  void apply(std::string_view key, T* out, Parse&& parse) {
    if (auto v = take(key)) *out = parse(*v);
  }

  void finish() const;

 private:
  std::string where_;
  std::vector<std::pair<std::string, std::string>> pairs_;
};

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Glob-style match supporting '*' and '?' (used for probe-name patterns,
/// mirroring the function selection facilities of VT config files).
bool glob_match(std::string_view pattern, std::string_view text);

}  // namespace dyntrace::str
