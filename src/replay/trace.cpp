#include "replay/trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "support/common.hpp"
#include "support/strings.hpp"

namespace dyntrace::replay {

namespace {

/// The dumpi_function enum's MPI-1 names (SNIPPETS.md §3): the vocabulary.
/// Everything here parses; names outside kReplayedVerbs skip-count (or
/// reject under strict).
const char* const kDumpiNames[] = {
    "MPI_Send", "MPI_Recv", "MPI_Get_count", "MPI_Bsend", "MPI_Ssend", "MPI_Rsend",
    "MPI_Buffer_attach", "MPI_Buffer_detach", "MPI_Isend", "MPI_Ibsend", "MPI_Issend",
    "MPI_Irsend", "MPI_Irecv", "MPI_Wait", "MPI_Test", "MPI_Request_free",
    "MPI_Waitany", "MPI_Testany", "MPI_Waitall", "MPI_Testall", "MPI_Waitsome",
    "MPI_Testsome", "MPI_Iprobe", "MPI_Probe", "MPI_Cancel", "MPI_Test_cancelled",
    "MPI_Send_init", "MPI_Bsend_init", "MPI_Ssend_init", "MPI_Rsend_init",
    "MPI_Recv_init", "MPI_Start", "MPI_Startall", "MPI_Sendrecv",
    "MPI_Sendrecv_replace", "MPI_Type_contiguous", "MPI_Type_vector",
    "MPI_Type_hvector", "MPI_Type_indexed", "MPI_Type_hindexed", "MPI_Type_struct",
    "MPI_Address", "MPI_Type_extent", "MPI_Type_size", "MPI_Type_lb", "MPI_Type_ub",
    "MPI_Type_commit", "MPI_Type_free", "MPI_Get_elements", "MPI_Pack", "MPI_Unpack",
    "MPI_Pack_size", "MPI_Barrier", "MPI_Bcast", "MPI_Gather", "MPI_Gatherv",
    "MPI_Scatter", "MPI_Scatterv", "MPI_Allgather", "MPI_Allgatherv", "MPI_Alltoall",
    "MPI_Alltoallv", "MPI_Reduce", "MPI_Op_create", "MPI_Op_free", "MPI_Allreduce",
    "MPI_Reduce_scatter", "MPI_Scan", "MPI_Group_size", "MPI_Group_rank",
    "MPI_Group_translate_ranks", "MPI_Group_compare", "MPI_Comm_group",
    "MPI_Group_union", "MPI_Group_intersection", "MPI_Group_difference",
    "MPI_Group_incl", "MPI_Group_excl", "MPI_Group_range_incl", "MPI_Group_range_excl",
    "MPI_Group_free", "MPI_Comm_size", "MPI_Comm_rank", "MPI_Comm_compare",
    "MPI_Comm_dup", "MPI_Comm_create", "MPI_Comm_split", "MPI_Comm_free",
    "MPI_Comm_test_inter", "MPI_Comm_remote_size", "MPI_Comm_remote_group",
    "MPI_Intercomm_create", "MPI_Intercomm_merge", "MPI_Keyval_create",
    "MPI_Keyval_free", "MPI_Attr_put", "MPI_Attr_get", "MPI_Attr_delete",
    "MPI_Topo_test", "MPI_Cart_create", "MPI_Dims_create", "MPI_Graph_create",
    "MPI_Graphdims_get", "MPI_Graph_get", "MPI_Cart_rank", "MPI_Cart_coords",
    "MPI_Graph_neighbors_count", "MPI_Graph_neighbors", "MPI_Cart_shift",
    "MPI_Cart_sub", "MPI_Cart_map", "MPI_Graph_map", "MPI_Get_processor_name",
    "MPI_Get_version", "MPI_Errhandler_create", "MPI_Errhandler_set",
    "MPI_Errhandler_get", "MPI_Errhandler_free", "MPI_Error_string",
    "MPI_Error_class", "MPI_Wtime", "MPI_Wtick", "MPI_Init", "MPI_Finalize",
    "MPI_Initialized", "MPI_Abort", "MPI_Pcontrol",
};

struct VerbName {
  const char* name;
  Verb verb;
};

/// The replayed subset of the vocabulary, plus the two local verbs.
constexpr VerbName kReplayedVerbs[] = {
    {"call", Verb::kCall},
    {"sync", Verb::kSync},
    {"MPI_Send", Verb::kSend},
    {"MPI_Recv", Verb::kRecv},
    {"MPI_Isend", Verb::kIsend},
    {"MPI_Irecv", Verb::kIrecv},
    {"MPI_Wait", Verb::kWait},
    {"MPI_Waitall", Verb::kWaitall},
    {"MPI_Sendrecv", Verb::kSendrecv},
    {"MPI_Barrier", Verb::kBarrier},
    {"MPI_Bcast", Verb::kBcast},
    {"MPI_Reduce", Verb::kReduce},
    {"MPI_Allreduce", Verb::kAllreduce},
    {"MPI_Gather", Verb::kGather},
    {"MPI_Scatter", Verb::kScatter},
    {"MPI_Alltoall", Verb::kAlltoall},
};

std::vector<std::string> split_ws(std::string_view line) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

bool all_digits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; });
}

sim::TimeNs parse_time(const std::string& text, const std::string& where) {
  std::size_t suffix = text.size();
  while (suffix > 0 && !(text[suffix - 1] >= '0' && text[suffix - 1] <= '9')) --suffix;
  const std::string digits = text.substr(0, suffix);
  const std::string unit = text.substr(suffix);
  DT_EXPECT(!digits.empty(), where, ": bad time '", text, "'");
  double value = 0;
  try {
    value = std::stod(digits);
  } catch (const std::exception&) {
    fail(where, ": bad time '", text, "'");
  }
  DT_EXPECT(value >= 0, where, ": negative time '", text, "'");
  if (unit.empty() || unit == "ns") return static_cast<sim::TimeNs>(value);
  if (unit == "us") return sim::microseconds(value);
  if (unit == "ms") return sim::milliseconds(value);
  if (unit == "s") return sim::seconds(value);
  fail(where, ": unknown time unit '", unit, "' (use ns/us/ms/s)");
}

/// key=value accessor over one event line's trailing tokens.
class EventParser {
 public:
  EventParser(const std::vector<std::string>& tokens, std::size_t first,
              std::string where)
      : where_(std::move(where)) {
    for (std::size_t i = first; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      DT_EXPECT(eq != std::string::npos && eq > 0, where_, ": expected key=value, got '",
                tokens[i], "'");
      pairs_.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
    }
  }

  std::optional<std::string> take(const std::string& key) {
    for (auto it = pairs_.begin(); it != pairs_.end(); ++it) {
      if (it->first == key) {
        std::string value = it->second;
        pairs_.erase(it);
        return value;
      }
    }
    return std::nullopt;
  }

  std::string require(const std::string& key, const char* verb) {
    auto v = take(key);
    DT_EXPECT(v.has_value(), where_, ": ", verb, " needs ", key, "=");
    return *v;
  }

  int as_int(const std::string& value) const {
    try {
      return static_cast<int>(std::stoll(value));
    } catch (const std::exception&) {
      fail(where_, ": bad integer '", value, "'");
    }
  }
  std::int64_t as_i64(const std::string& value) const {
    try {
      return std::stoll(value);
    } catch (const std::exception&) {
      fail(where_, ": bad integer '", value, "'");
    }
  }

  void apply_int(const std::string& key, int* out) {
    if (auto v = take(key)) *out = as_int(*v);
  }
  void apply_i64(const std::string& key, std::int64_t* out) {
    if (auto v = take(key)) *out = as_i64(*v);
  }
  void apply_time(const std::string& key, sim::TimeNs* out) {
    if (auto v = take(key)) *out = parse_time(*v, where_);
  }

  void finish() const {
    DT_EXPECT(pairs_.empty(), where_, ": unknown key '",
              pairs_.empty() ? "" : pairs_.front().first, "'");
  }

  const std::string& where() const { return where_; }

 private:
  std::string where_;
  std::vector<std::pair<std::string, std::string>> pairs_;
};

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : text) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

bool is_collective(Verb verb) {
  switch (verb) {
    case Verb::kSync:
    case Verb::kBarrier:
    case Verb::kBcast:
    case Verb::kReduce:
    case Verb::kAllreduce:
    case Verb::kGather:
    case Verb::kScatter:
    case Verb::kAlltoall:
      return true;
    default:
      return false;
  }
}

/// Cross-rank well-formedness: p2p conservation, request discipline, and
/// collective-sequence identity -- parse-time guarantees that a replay
/// cannot deadlock or leak requests.
void validate(const ReplayTrace& trace, const std::string& origin) {
  // Point-to-point pairing per (src, dst, tag).
  std::map<std::tuple<int, int, int>, std::int64_t> balance;
  for (int r = 0; r < trace.ranks; ++r) {
    for (const ReplayEvent& ev : trace.events[static_cast<std::size_t>(r)]) {
      switch (ev.verb) {
        case Verb::kSend:
        case Verb::kIsend:
          ++balance[{r, ev.peer, ev.tag}];
          break;
        case Verb::kRecv:
        case Verb::kIrecv:
          --balance[{ev.peer, r, ev.tag}];
          break;
        case Verb::kSendrecv:
          ++balance[{r, ev.peer, ev.tag}];
          --balance[{ev.src, r, ev.tag}];
          break;
        default:
          break;
      }
    }
  }
  for (const auto& [key, count] : balance) {
    const auto [src, dst, tag] = key;
    DT_EXPECT(count == 0, origin, ": unmatched point-to-point traffic ", src, " -> ",
              dst, " tag ", tag, " (", count > 0 ? count : -count, " ",
              count > 0 ? "send(s) never received" : "recv(s) never sent",
              "); a replay would deadlock");
  }

  // Request discipline per rank: open exactly once, wait exactly once.
  for (int r = 0; r < trace.ranks; ++r) {
    std::set<std::string> open;
    for (const ReplayEvent& ev : trace.events[static_cast<std::size_t>(r)]) {
      if (ev.verb == Verb::kIsend || ev.verb == Verb::kIrecv) {
        DT_EXPECT(open.insert(ev.reqs.front()).second, origin, ": rank ", r,
                  " reuses request '", ev.reqs.front(), "' while it is in flight");
      } else if (ev.verb == Verb::kWait || ev.verb == Verb::kWaitall) {
        for (const std::string& req : ev.reqs) {
          DT_EXPECT(open.erase(req) == 1, origin, ": rank ", r,
                    " waits on unknown request '", req, "'");
        }
      }
    }
    DT_EXPECT(open.empty(), origin, ": rank ", r, " never waits on request '",
              open.empty() ? "" : *open.begin(), "'");
  }

  // Collectives (and safe-point offers) must line up across ranks.
  std::vector<std::tuple<Verb, int, std::int64_t>> shape0;
  for (int r = 0; r < trace.ranks; ++r) {
    std::vector<std::tuple<Verb, int, std::int64_t>> shape;
    for (const ReplayEvent& ev : trace.events[static_cast<std::size_t>(r)]) {
      if (is_collective(ev.verb)) shape.emplace_back(ev.verb, ev.peer, ev.bytes);
    }
    if (r == 0) {
      shape0 = std::move(shape);
      continue;
    }
    DT_EXPECT(shape.size() == shape0.size(), origin, ": rank ", r, " records ",
              shape.size(), " collective/sync event(s) but rank 0 records ",
              shape0.size(), "; a replay would deadlock");
    for (std::size_t i = 0; i < shape.size(); ++i) {
      DT_EXPECT(shape[i] == shape0[i], origin, ": rank ", r, "'s collective #", i + 1,
                " (", to_string(std::get<0>(shape[i])), ") does not match rank 0's (",
                to_string(std::get<0>(shape0[i])), "); a replay would deadlock");
    }
  }
}

}  // namespace

const char* to_string(Verb verb) {
  for (const auto& entry : kReplayedVerbs) {
    if (entry.verb == verb) return entry.name;
  }
  return "?";
}

bool in_dumpi_vocabulary(std::string_view name) {
  for (const char* candidate : kDumpiNames) {
    if (name == candidate) return true;
  }
  return false;
}

ReplayTrace ReplayTrace::parse(std::string_view text, const std::string& origin,
                               ParseOptions options) {
  ReplayTrace trace;
  std::vector<sim::TimeNs> cursor;  ///< per-rank last event timestamp
  std::vector<sim::TimeNs> busy;    ///< per-rank replay clock (see below)
  std::set<std::string> seen_calls;
  std::set<std::string> seen_skips;
  bool have_subset_directive = false;

  int line_no = 0;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto tokens = split_ws(line);
    if (tokens.empty()) continue;
    const std::string where = str::format("%s:%d", origin.c_str(), line_no);

    // --- directives ----------------------------------------------------------
    if (tokens[0] == "ranks") {
      DT_EXPECT(trace.ranks == 0, where, ": duplicate ranks directive");
      DT_EXPECT(tokens.size() == 2 && all_digits(tokens[1]), where,
                ": ranks takes one integer");
      trace.ranks = static_cast<int>(std::stoll(tokens[1]));
      DT_EXPECT(trace.ranks >= 1, where, ": ranks must be >= 1");
      trace.events.resize(static_cast<std::size_t>(trace.ranks));
      cursor.assign(static_cast<std::size_t>(trace.ranks), 0);
      busy.assign(static_cast<std::size_t>(trace.ranks), 0);
      continue;
    }
    if (tokens[0] == "app") {
      DT_EXPECT(tokens.size() == 2, where, ": app takes one name");
      trace.app_name = tokens[1];
      continue;
    }
    if (tokens[0] == "subset") {
      DT_EXPECT(tokens.size() >= 2, where, ": subset needs at least one function");
      have_subset_directive = true;
      trace.subset.assign(tokens.begin() + 1, tokens.end());
      continue;
    }

    // --- events: <rank> <time> <verb> [key=value ...] -----------------------
    DT_EXPECT(all_digits(tokens[0]), where, ": expected a directive or '<rank> <time> ",
              "<verb>', got '", tokens[0], "'");
    DT_EXPECT(trace.ranks > 0, where, ": the ranks directive must precede events");
    DT_EXPECT(tokens.size() >= 3, where, ": truncated event line (need rank, ",
              "timestamp and verb)");
    const int rank = static_cast<int>(std::stoll(tokens[0]));
    DT_EXPECT(rank < trace.ranks, where, ": rank ", rank, " out of range (ranks ",
              trace.ranks, ")");
    ReplayEvent ev;
    ev.at = parse_time(tokens[1], where);
    DT_EXPECT(ev.at >= cursor[static_cast<std::size_t>(rank)], where,
              ": non-monotonic timestamp for rank ", rank, " (",
              static_cast<long long>(ev.at), "ns after ",
              static_cast<long long>(cursor[static_cast<std::size_t>(rank)]), "ns)");
    cursor[static_cast<std::size_t>(rank)] = ev.at;

    const std::string& verb_name = tokens[2];
    const VerbName* match = nullptr;
    for (const auto& entry : kReplayedVerbs) {
      if (verb_name == entry.name) {
        match = &entry;
        break;
      }
    }
    if (match == nullptr) {
      DT_EXPECT(in_dumpi_vocabulary(verb_name), where, ": unknown verb '", verb_name,
                "' (not in the dumpi_function vocabulary; see docs/TRACE_REPLAY.md)");
      DT_EXPECT(!options.strict, where, ": unsupported verb '", verb_name,
                "' (in the dumpi_function vocabulary but not replayed; drop --replay-",
                "strict to skip-count it)");
      ++trace.skipped_events;
      if (seen_skips.insert(verb_name).second) trace.skipped_verbs.push_back(verb_name);
      continue;
    }
    ev.verb = match->verb;

    EventParser p(tokens, 3, where);
    switch (ev.verb) {
      case Verb::kCall:
        ev.fn = p.require("fn", "call");
        ev.work = parse_time(p.require("work", "call"), where);
        p.apply_i64("count", &ev.count);
        DT_EXPECT(ev.count >= 1, where, ": call count must be >= 1");
        if (seen_calls.insert(ev.fn).second) trace.call_functions.push_back(ev.fn);
        break;
      case Verb::kSync:
        break;
      case Verb::kSend:
      case Verb::kIsend:
        ev.peer = p.as_int(p.require("dst", verb_name.c_str()));
        p.apply_int("tag", &ev.tag);
        p.apply_i64("bytes", &ev.bytes);
        break;
      case Verb::kRecv:
      case Verb::kIrecv:
        ev.peer = p.as_int(p.require("src", verb_name.c_str()));
        p.apply_int("tag", &ev.tag);
        break;
      case Verb::kWait:
      case Verb::kWaitall:
        break;  // req= handled below
      case Verb::kSendrecv:
        ev.peer = p.as_int(p.require("dst", "MPI_Sendrecv"));
        ev.src = p.as_int(p.require("src", "MPI_Sendrecv"));
        p.apply_int("tag", &ev.tag);
        p.apply_i64("bytes", &ev.bytes);
        break;
      case Verb::kBcast:
      case Verb::kReduce:
      case Verb::kGather:
      case Verb::kScatter:
        ev.peer = p.as_int(p.require("root", verb_name.c_str()));
        p.apply_i64("bytes", &ev.bytes);
        break;
      case Verb::kBarrier:
        break;
      case Verb::kAllreduce:
      case Verb::kAlltoall:
        p.apply_i64("bytes", &ev.bytes);
        break;
    }
    if (ev.verb == Verb::kIsend || ev.verb == Verb::kIrecv || ev.verb == Verb::kWait ||
        ev.verb == Verb::kWaitall) {
      ev.reqs = split_commas(p.require("req", verb_name.c_str()));
      DT_EXPECT(!ev.reqs.empty(), where, ": empty req= list");
      DT_EXPECT(ev.verb == Verb::kWaitall || ev.reqs.size() == 1, where, ": ",
                verb_name, " takes a single req=");
    }
    if (ev.verb != Verb::kCall && ev.verb != Verb::kSync) p.apply_time("dur", &ev.dur);
    p.finish();

    // Range checks shared by the p2p verbs.
    if (ev.peer >= 0 || ev.verb == Verb::kSend || ev.verb == Verb::kRecv ||
        ev.verb == Verb::kIsend || ev.verb == Verb::kIrecv ||
        ev.verb == Verb::kSendrecv || ev.verb == Verb::kBcast ||
        ev.verb == Verb::kReduce || ev.verb == Verb::kGather ||
        ev.verb == Verb::kScatter) {
      DT_EXPECT(ev.peer >= 0 && ev.peer < trace.ranks, where, ": peer ", ev.peer,
                " out of range (ranks ", trace.ranks, ")");
    }
    if (ev.verb == Verb::kSendrecv) {
      DT_EXPECT(ev.src >= 0 && ev.src < trace.ranks, where, ": src ", ev.src,
                " out of range (ranks ", trace.ranks, ")");
    }
    const bool p2p = ev.verb == Verb::kSend || ev.verb == Verb::kRecv ||
                     ev.verb == Verb::kIsend || ev.verb == Verb::kIrecv;
    DT_EXPECT(!p2p || ev.peer != rank, where, ": rank ", rank,
              " sends/receives with itself");
    DT_EXPECT(ev.bytes >= 0, where, ": negative bytes");

    // Mirror the replay body's clock (replay/app.cpp): idle up to the
    // timestamp, then count x work for a call or the recorded dur= of an
    // MPI verb.  Checked, so a trace that would overflow the simulated
    // clock fails here rather than mid-run.
    sim::TimeNs cost = ev.dur;
    DT_EXPECT(ev.verb != Verb::kCall || !__builtin_mul_overflow(ev.count, ev.work, &cost),
              where, ": call count=", ev.count, " x work=", ev.work,
              "ns overflows the simulated clock");
    sim::TimeNs& clock = busy[static_cast<std::size_t>(rank)];
    DT_EXPECT(!__builtin_add_overflow(std::max(clock, ev.at), cost, &clock), where,
              ": rank ", rank, "'s replayed work overflows the simulated clock");

    trace.events[static_cast<std::size_t>(rank)].push_back(std::move(ev));
  }

  DT_EXPECT(trace.ranks > 0, origin, ": missing ranks directive");
  if (!have_subset_directive) trace.subset = trace.call_functions;
  for (const std::string& fn : trace.subset) {
    DT_EXPECT(seen_calls.count(fn) != 0, origin, ": subset function '", fn,
              "' never appears in a call event");
  }
  validate(trace, origin);
  return trace;
}

ReplayTrace ReplayTrace::load(const std::string& path, ParseOptions options) {
  std::ifstream in(path);
  DT_EXPECT(in.good(), "cannot open trace '", path, "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), path, options);
}

}  // namespace dyntrace::replay
