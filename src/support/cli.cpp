#include "support/cli.hpp"

#include <cstdio>
#include <limits>
#include <sstream>

#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

CliParser& CliParser::flag(std::string name, std::string help, bool* out) {
  DT_ASSERT(out != nullptr);
  options_.push_back(Option{std::move(name), std::move(help), false,
                            [out](const std::string&) { *out = true; }});
  return *this;
}

namespace {

std::int64_t parse_int_option(const std::string& name, const std::string& value) {
  const auto parsed = str::parse_i64(value);
  DT_EXPECT(parsed.has_value(), "--", name, " expects an integer, got '", value, "'");
  return *parsed;
}

}  // namespace

CliParser& CliParser::option_int(std::string name, std::string help, std::int64_t* out) {
  DT_ASSERT(out != nullptr);
  std::string n = name;
  options_.push_back(Option{std::move(name), std::move(help), true,
                            [out, n](const std::string& v) { *out = parse_int_option(n, v); }});
  return *this;
}

CliParser& CliParser::option_int(std::string name, std::string help, int* out) {
  DT_ASSERT(out != nullptr);
  std::string n = name;
  options_.push_back(Option{std::move(name), std::move(help), true,
                            [out, n](const std::string& v) {
                              const std::int64_t parsed = parse_int_option(n, v);
                              DT_EXPECT(parsed >= std::numeric_limits<int>::min() &&
                                            parsed <= std::numeric_limits<int>::max(),
                                        "--", n, " is out of range: ", v, " does not fit an int");
                              *out = static_cast<int>(parsed);
                            }});
  return *this;
}

CliParser& CliParser::option_double(std::string name, std::string help, double* out) {
  DT_ASSERT(out != nullptr);
  std::string n = name;
  options_.push_back(Option{std::move(name), std::move(help), true,
                            [out, n](const std::string& v) {
                              auto parsed = str::parse_f64(v);
                              DT_EXPECT(parsed.has_value(), "--", n, " expects a number, got '",
                                        v, "'");
                              *out = *parsed;
                            }});
  return *this;
}

CliParser& CliParser::option_string(std::string name, std::string help, std::string* out) {
  DT_ASSERT(out != nullptr);
  options_.push_back(Option{std::move(name), std::move(help), true,
                            [out](const std::string& v) { *out = v; }});
  return *this;
}

CliParser& CliParser::positional(std::string name, std::string help, std::string* out,
                                 bool optional) {
  DT_ASSERT(out != nullptr);
  if (!positionals_.empty()) {
    DT_ASSERT(!positionals_.back().optional || optional,
              "required positional cannot follow an optional one");
  }
  positionals_.push_back(Positional{std::move(name), std::move(help), out, optional});
  return *this;
}

CliParser& CliParser::rest(std::vector<std::string>* out) {
  rest_ = out;
  return *this;
}

const CliParser::Option* CliParser::find(const std::string& name) const {
  for (const auto& o : options_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

bool CliParser::parse(int argc, const char* const* argv) {
  given_.clear();
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    if (str::starts_with(arg, "--")) {
      std::string name = arg.substr(2);
      std::optional<std::string> inline_value;
      const std::size_t eq = name.find('=');
      if (eq != std::string::npos) {
        inline_value = name.substr(eq + 1);
        name = name.substr(0, eq);
      }
      const Option* opt = find(name);
      DT_EXPECT(opt != nullptr, "unknown option --", name);
      given_.push_back(name);
      if (opt->takes_value) {
        std::string value;
        if (inline_value) {
          value = *inline_value;
        } else {
          DT_EXPECT(i + 1 < argc, "--", name, " expects a value");
          value = argv[++i];
        }
        opt->apply(value);
      } else {
        DT_EXPECT(!inline_value.has_value(), "--", name, " does not take a value");
        opt->apply("");
      }
    } else {
      if (next_positional < positionals_.size()) {
        *positionals_[next_positional++].out = arg;
      } else if (rest_ != nullptr) {
        rest_->push_back(arg);
      } else {
        fail("unexpected argument '", arg, "'");
      }
    }
  }
  DT_EXPECT(next_positional >= positionals_.size() || positionals_[next_positional].optional,
            "missing required argument <", positionals_[next_positional].name, ">");
  return true;
}

std::string CliParser::help_text() const {
  std::ostringstream os;
  os << "usage: " << program_;
  for (const auto& p : positionals_) {
    os << (p.optional ? " [" : " <") << p.name << (p.optional ? "]" : ">");
  }
  if (!options_.empty()) os << " [options]";
  os << "\n\n" << description_ << "\n";
  if (!positionals_.empty()) {
    os << "\narguments:\n";
    for (const auto& p : positionals_) {
      os << "  " << p.name << "\n      " << p.help << "\n";
    }
  }
  if (!options_.empty()) {
    os << "\noptions:\n";
    for (const auto& o : options_) {
      os << "  --" << o.name << (o.takes_value ? " <value>" : "") << "\n      " << o.help << "\n";
    }
  }
  return os.str();
}

}  // namespace dyntrace
