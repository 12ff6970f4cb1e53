// A small command-line option parser for the example tools and benches.
//
// Supports --flag, --key=value, --key value, and positional arguments, with
// generated --help text.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace dyntrace {

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Register options.  `name` is used as "--name".  Returns *this for
  /// chaining.
  CliParser& flag(std::string name, std::string help, bool* out);
  CliParser& option_int(std::string name, std::string help, std::int64_t* out);
  /// An int option: values outside int's range are rejected, naming the
  /// option, rather than narrowed.
  CliParser& option_int(std::string name, std::string help, int* out);
  CliParser& option_double(std::string name, std::string help, double* out);
  CliParser& option_string(std::string name, std::string help, std::string* out);

  /// Declare a named positional argument (required unless optional=true).
  CliParser& positional(std::string name, std::string help, std::string* out,
                        bool optional = false);

  /// Parse; returns false if --help was requested (help text printed to
  /// stdout).  Throws dyntrace::Error on bad input.
  bool parse(int argc, const char* const* argv);

  std::string help_text() const;

  /// The options the last parse() applied (names without dashes), in order.
  const std::vector<std::string>& given() const { return given_; }

 private:
  struct Option {
    std::string name;
    std::string help;
    bool takes_value = false;
    std::function<void(const std::string&)> apply;
  };
  struct Positional {
    std::string name;
    std::string help;
    std::string* out;
    bool optional;
  };

  const Option* find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::vector<Positional> positionals_;
  std::vector<std::string> given_;
};

}  // namespace dyntrace
