#include "support/config.hpp"

#include <fstream>
#include <sstream>

#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace {

ConfigFile ConfigFile::parse(std::string_view text, std::string origin) {
  ConfigFile cfg;
  cfg.origin_ = std::move(origin);
  std::string current_section;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
    ++line_no;

    // Strip comments ('#' or ';' outside of values is fine for our formats;
    // we strip at the first unescaped occurrence).
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = str::trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      DT_EXPECT(line.back() == ']', cfg.origin_, ":", line_no, ": unterminated section header");
      current_section = std::string(str::trim(line.substr(1, line.size() - 2)));
      continue;
    }

    const std::size_t eq = line.find('=');
    DT_EXPECT(eq != std::string_view::npos, cfg.origin_, ":", line_no,
              ": expected 'key = value', got '", std::string(line), "'");
    Entry e;
    e.section = current_section;
    e.key = std::string(str::trim(line.substr(0, eq)));
    e.value = std::string(str::trim(line.substr(eq + 1)));
    e.line = line_no;
    DT_EXPECT(!e.key.empty(), cfg.origin_, ":", line_no, ": empty key");
    cfg.entries_.push_back(std::move(e));
  }
  return cfg;
}

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  DT_EXPECT(in.good(), "cannot open config file '", path, "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), path);
}

std::optional<std::string> ConfigFile::get(std::string_view sec, std::string_view key) const {
  std::optional<std::string> found;
  for (const auto& e : entries_) {
    if (e.section == sec && e.key == key) found = e.value;
  }
  return found;
}

std::string ConfigFile::get_string(std::string_view sec, std::string_view key,
                                   std::string_view fallback) const {
  auto v = get(sec, key);
  return v ? *v : std::string(fallback);
}

std::int64_t ConfigFile::get_int(std::string_view sec, std::string_view key,
                                 std::int64_t fallback) const {
  auto v = get(sec, key);
  if (!v) return fallback;
  auto parsed = str::parse_i64(*v);
  DT_EXPECT(parsed.has_value(), origin_, ": [", std::string(sec), "] ", std::string(key),
            " = '", *v, "' is not an integer");
  return *parsed;
}

double ConfigFile::get_double(std::string_view sec, std::string_view key,
                              double fallback) const {
  auto v = get(sec, key);
  if (!v) return fallback;
  auto parsed = str::parse_f64(*v);
  DT_EXPECT(parsed.has_value(), origin_, ": [", std::string(sec), "] ", std::string(key),
            " = '", *v, "' is not a number");
  return *parsed;
}

}  // namespace dyntrace
