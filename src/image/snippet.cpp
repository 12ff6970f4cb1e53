#include "image/snippet.hpp"

#include <sstream>

namespace dyntrace::image {

namespace {

constexpr const char* kLibEntryNames[kLibEntryCount] = {
    "VT_init", "VT_begin", "VT_end", "VT_traceoff", "VT_traceon", "VT_finalize", "VT_confsync",
    "MPI_Barrier",
};

struct CountVisitor {
  int operator()(const NoOp&) const { return 0; }
  int operator()(const CallLibOp&) const { return 1; }
  int operator()(const SpinUntilOp&) const { return 1; }
  int operator()(const CallbackOp&) const { return 1; }
  int operator()(const SequenceOp& s) const {
    int total = 0;
    for (const auto& item : s.items) total += item->primitive_count();
    return total;
  }
};

struct PrintVisitor {
  std::ostringstream& os;
  void operator()(const NoOp&) const { os << "noop"; }
  void operator()(const CallLibOp& c) const {
    os << "call " << c.function << '(';
    for (std::size_t i = 0; i < c.args.size(); ++i) {
      if (i) os << ", ";
      os << c.args[i];
    }
    os << ')';
  }
  void operator()(const SpinUntilOp& s) const { os << "spin_until " << s.flag << "==" << s.value; }
  void operator()(const CallbackOp& c) const { os << "callback '" << c.tag << "'"; }
  void operator()(const SequenceOp& s) const {
    os << "seq(";
    for (std::size_t i = 0; i < s.items.size(); ++i) {
      if (i) os << ", ";
      os << s.items[i]->to_string();
    }
    os << ')';
  }
};

}  // namespace

const char* to_string(LibEntry entry) {
  const auto index = static_cast<std::size_t>(entry);
  return index < kLibEntryCount ? kLibEntryNames[index] : "";
}

LibEntry lib_entry(std::string_view name) {
  for (std::size_t i = 0; i < kLibEntryCount; ++i) {
    if (name == kLibEntryNames[i]) return static_cast<LibEntry>(i);
  }
  return LibEntry::kCustom;
}

int Snippet::primitive_count() const { return std::visit(CountVisitor{}, node_); }

std::string Snippet::to_string() const {
  std::ostringstream os;
  std::visit(PrintVisitor{os}, node_);
  return os.str();
}

namespace snippet {

SnippetPtr noop() { return std::make_shared<const Snippet>(Snippet::Node{NoOp{}}); }

SnippetPtr call(std::string function, std::vector<std::int64_t> args) {
  return std::make_shared<const Snippet>(
      Snippet::Node{CallLibOp{std::move(function), std::move(args)}});
}

SnippetPtr seq(std::vector<SnippetPtr> items) {
  return std::make_shared<const Snippet>(Snippet::Node{SequenceOp{std::move(items)}});
}

SnippetPtr spin_until(std::string flag, std::int64_t value) {
  return std::make_shared<const Snippet>(Snippet::Node{SpinUntilOp{std::move(flag), value}});
}

SnippetPtr callback(std::string tag) {
  return std::make_shared<const Snippet>(Snippet::Node{CallbackOp{std::move(tag)}});
}

}  // namespace snippet

}  // namespace dyntrace::image
