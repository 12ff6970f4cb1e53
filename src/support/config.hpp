// INI-style configuration files.
//
// Machine profiles (configs/*.ini, read by machine::spec_from_config) are
// sections of key/value pairs:
//
//     [section]
//     key = value        ; comment
//     # full-line comment
//
// Keys outside any section land in the "" (global) section.  A repeated key
// is kept in file order, and the getters return its last value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dyntrace {

class ConfigFile {
 public:
  struct Entry {
    std::string section;
    std::string key;
    std::string value;
    int line = 0;  ///< 1-based source line, for error messages.
  };

  /// Parse from text; throws dyntrace::Error with a line number on syntax
  /// errors.  `origin` is used in error messages (e.g. a file name).
  static ConfigFile parse(std::string_view text, std::string origin = "<config>");

  /// Load from a file on disk.
  static ConfigFile load(const std::string& path);

  /// Last value for section/key, if present.
  std::optional<std::string> get(std::string_view section, std::string_view key) const;

  /// Typed getters with defaults; throw dyntrace::Error if a present value
  /// fails to parse.
  std::string get_string(std::string_view section, std::string_view key,
                         std::string_view fallback) const;
  std::int64_t get_int(std::string_view section, std::string_view key,
                       std::int64_t fallback) const;
  double get_double(std::string_view section, std::string_view key, double fallback) const;

  const std::string& origin() const { return origin_; }

 private:
  std::vector<Entry> entries_;
  std::string origin_;
};

}  // namespace dyntrace
