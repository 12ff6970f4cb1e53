#include "support/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "support/common.hpp"

namespace dyntrace::str {

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}

}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<std::int64_t> parse_i64(std::string_view s) {
  const std::string t(trim(s));
  if (t.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(t.c_str(), &end, 10);
  if (errno != 0 || end != t.c_str() + t.size()) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  const std::string t(trim(s));
  // strtoull would negate a leading '-' into a huge value; a seed or an
  // index never has a sign.
  if (t.empty() || t.front() < '0' || t.front() > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
  if (errno != 0 || end != t.c_str() + t.size()) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

std::optional<double> parse_f64(std::string_view s) {
  const std::string t(trim(s));
  if (t.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (errno != 0 || end != t.c_str() + t.size()) return std::nullopt;
  return v;
}

KeyValueLine::KeyValueLine(const std::vector<std::string>& tokens, std::size_t first,
                           std::string where)
    : where_(std::move(where)) {
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    DT_EXPECT(eq != std::string::npos && eq > 0, where_, ": expected key=value, got '",
              tokens[i], "'");
    pairs_.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
  }
}

std::optional<std::string> KeyValueLine::take(std::string_view key) {
  for (auto it = pairs_.begin(); it != pairs_.end(); ++it) {
    if (it->first == key) {
      std::string value = std::move(it->second);
      pairs_.erase(it);
      return value;
    }
  }
  return std::nullopt;
}

std::string KeyValueLine::require(std::string_view key, std::string_view what) {
  auto v = take(key);
  DT_EXPECT(v.has_value(), where_, ": ", what, " needs ", key, "=");
  return *v;
}

std::int64_t KeyValueLine::to_i64(const std::string& value) const {
  const auto v = parse_i64(value);
  DT_EXPECT(v.has_value(), where_, ": bad integer '", value, "'");
  return *v;
}

int KeyValueLine::to_int(const std::string& value) const {
  const std::int64_t v = to_i64(value);
  DT_EXPECT(v >= std::numeric_limits<int>::min() && v <= std::numeric_limits<int>::max(),
            where_, ": integer '", value, "' is out of range");
  return static_cast<int>(v);
}

double KeyValueLine::to_f64(const std::string& value) const {
  const auto v = parse_f64(value);
  DT_EXPECT(v.has_value(), where_, ": bad number '", value, "'");
  return *v;
}

void KeyValueLine::apply_int(std::string_view key, int* out) {
  if (auto v = take(key)) *out = to_int(*v);
}

void KeyValueLine::apply_i64(std::string_view key, std::int64_t* out) {
  if (auto v = take(key)) *out = to_i64(*v);
}

void KeyValueLine::apply_f64(std::string_view key, double* out) {
  if (auto v = take(key)) *out = to_f64(*v);
}

void KeyValueLine::finish() const {
  DT_EXPECT(pairs_.empty(), where_, ": unknown key '", pairs_.empty() ? "" : pairs_.front().first,
            "'");
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative wildcard matching with backtracking over the last '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, match = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace dyntrace::str
