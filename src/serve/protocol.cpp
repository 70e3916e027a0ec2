#include "serve/protocol.hpp"

#include <cmath>
#include <stdexcept>
#include <string_view>

#include "common/json.hpp"

namespace p8::serve {

namespace {

using common::Json;

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument(what);
}

/// A member's name in diagnostics: "path.key", or `path` alone when
/// `key` is empty.  Spelled out only when a check fails.
struct Name {
  std::string_view path;
  std::string_view key;
  std::string str() const {
    std::string name(path);
    if (!key.empty()) name.append(".").append(key);
    return name;
  }
};

double number_member(const Json& v, const Name& what) {
  return v.is_number() ? v.number : v.as_number(what.str());
}

const std::string& string_member(const Json& v, const Name& what) {
  return v.is_string() ? v.string : v.as_string(what.str());
}

/// An integral member in [lo, hi].
std::uint64_t u64_member(const Json& v, const Name& what, std::uint64_t lo,
                         std::uint64_t hi) {
  const double raw = number_member(v, what);
  if (!(raw >= 0.0) || raw != std::floor(raw) || raw > 9.007199254740992e15)
    fail("request: " + what.str() + " must be a non-negative integer");
  const std::uint64_t n = static_cast<std::uint64_t>(raw);
  if (n < lo || n > hi)
    fail("request: " + what.str() + " must be between " +
         std::to_string(lo) + " and " + std::to_string(hi));
  return n;
}

int int_member(const Json& v, const Name& what, int lo, int hi) {
  return static_cast<int>(u64_member(v, what,
                                     static_cast<std::uint64_t>(lo),
                                     static_cast<std::uint64_t>(hi)));
}

predict::Query::Kind parse_kind(const std::string& name, const Name& what) {
  if (name == "chase-latency") return predict::Query::Kind::kChaseLatency;
  if (name == "stream-latency") return predict::Query::Kind::kStreamLatency;
  if (name == "stream-bandwidth")
    return predict::Query::Kind::kStreamBandwidth;
  if (name == "random-bandwidth")
    return predict::Query::Kind::kRandomBandwidth;
  if (name == "noc-latency") return predict::Query::Kind::kNocLatency;
  fail("request: " + what.str() +
       " must be one of chase-latency|stream-latency|stream-bandwidth|"
       "random-bandwidth|noc-latency, got \"" +
       name + "\"");
}

ubench::ChasePattern parse_pattern(const std::string& name,
                                   const Name& what) {
  if (name == "random") return ubench::ChasePattern::kRandom;
  if (name == "forward-stride") return ubench::ChasePattern::kForwardStride;
  if (name == "backward-stride") return ubench::ChasePattern::kBackwardStride;
  fail("request: " + what.str() +
       " must be one of random|forward-stride|backward-stride, got \"" +
       name + "\"");
}

const char* pattern_name(ubench::ChasePattern pattern) {
  switch (pattern) {
    case ubench::ChasePattern::kRandom: return "random";
    case ubench::ChasePattern::kForwardStride: return "forward-stride";
    case ubench::ChasePattern::kBackwardStride: return "backward-stride";
  }
  return "random";
}

/// Strict query-object parse: every member must be known, mirroring
/// the MachineSpec loader's contract (a typo must fail loudly, not
/// silently query the default).
predict::Query parse_query(const Json& v, const std::string& path) {
  if (!v.is_object()) fail("request: " + path + " must be an object");
  predict::Query q;
  bool have_kind = false;
  for (const auto& [key, value] : v.object) {
    const Name where{path, key};
    if (key == "kind") {
      q.kind = parse_kind(string_member(value, where), where);
      have_kind = true;
    } else if (key == "footprint_bytes") {
      q.footprint_bytes = u64_member(value, where, 1, 1ull << 32);
    } else if (key == "page_bytes") {
      q.page_bytes = u64_member(value, where, 64, 1ull << 30);
    } else if (key == "dscr") {
      q.dscr = int_member(value, where, 0, 7);
    } else if (key == "pattern") {
      q.pattern = parse_pattern(string_member(value, where), where);
    } else if (key == "stride_lines") {
      q.stride_lines = u64_member(value, where, 1, 1ull << 20);
    } else if (key == "consumer_chip") {
      q.consumer_chip = int_member(value, where, 0, 4096);
    } else if (key == "home_chip") {
      q.home_chip = int_member(value, where, 0, 4096);
    } else if (key == "read") {
      q.mix.read = number_member(value, where);
    } else if (key == "write") {
      q.mix.write = number_member(value, where);
    } else if (key == "chips") {
      q.chips = int_member(value, where, 1, 4096);
    } else if (key == "cores") {
      q.cores = int_member(value, where, 1, 4096);
    } else if (key == "threads") {
      q.threads = int_member(value, where, 1, 4096);
    } else if (key == "streams") {
      q.streams = int_member(value, where, 1, 4096);
    } else {
      fail("request: unknown member \"" + where.str() + "\"");
    }
  }
  if (!have_kind) fail("request: " + path + " is missing \"kind\"");
  if (q.mix.read < 0.0 || q.mix.write < 0.0 ||
      !(q.mix.read + q.mix.write > 0.0))
    fail("request: " + path +
         " read/write mix must be non-negative with positive total");
  return q;
}

std::string id_prefix(const std::optional<std::uint64_t>& id) {
  if (!id) return "{";
  return "{\"id\": " + std::to_string(*id) + ", ";
}

}  // namespace

Request parse_request(const std::string& line) {
  const Json doc = Json::parse(line);
  if (!doc.is_object()) fail("request: the document must be an object");
  Request r;
  bool have_verb = false;
  const Json* machine = nullptr;
  const Json* query = nullptr;
  const Json* queries = nullptr;
  for (const auto& [key, value] : doc.object) {
    if (key == "verb") {
      const std::string& verb = value.as_string("request: verb");
      if (verb == "query") {
        r.verb = Request::Verb::kQuery;
      } else if (verb == "stats") {
        r.verb = Request::Verb::kStats;
      } else if (verb == "ping") {
        r.verb = Request::Verb::kPing;
      } else if (verb == "shutdown") {
        r.verb = Request::Verb::kShutdown;
      } else {
        fail("request: unknown verb \"" + verb +
             "\" (expected query|stats|ping|shutdown)");
      }
      have_verb = true;
    } else if (key == "id") {
      r.id = u64_member(value, Name{"request: id", {}}, 0,
                        9007199254740992ull /* 2^53 */);
    } else if (key == "machine") {
      machine = &value;
    } else if (key == "query") {
      query = &value;
    } else if (key == "queries") {
      queries = &value;
    } else {
      fail("request: unknown member \"" + key + "\"");
    }
  }
  if (!have_verb) fail("request: missing \"verb\"");

  if (r.verb != Request::Verb::kQuery) {
    if (machine != nullptr || query != nullptr || queries != nullptr)
      fail("request: machine/query members are only valid with verb "
           "\"query\"");
    return r;
  }

  if (machine == nullptr) fail("request: verb \"query\" needs \"machine\"");
  if (machine->is_string()) {
    if (machine->string.empty())
      fail("request: machine name must not be empty");
    r.machine_name = machine->string;
  } else if (machine->is_object()) {
    r.machine_inline_json = common::json_dump(*machine);
  } else {
    fail("request: machine must be a preset name (string) or an inline "
         "spec (object)");
  }

  if ((query == nullptr) == (queries == nullptr))
    fail("request: verb \"query\" needs exactly one of \"query\" or "
         "\"queries\"");
  if (query != nullptr) {
    r.queries.push_back(parse_query(*query, "query"));
    r.batch = false;
  } else {
    if (!queries->is_array()) fail("request: queries must be an array");
    if (queries->array.empty()) fail("request: queries must not be empty");
    if (queries->array.size() > 4096)
      fail("request: queries is limited to 4096 entries per request");
    for (std::size_t i = 0; i < queries->array.size(); ++i)
      r.queries.push_back(parse_query(
          queries->array[i], "queries[" + std::to_string(i) + "]"));
    r.batch = true;
  }
  return r;
}

std::optional<std::uint64_t> request_id_best_effort(
    const std::string& line) {
  try {
    const Json doc = Json::parse(line);
    const Json* id = doc.find("id");
    if (id == nullptr) return std::nullopt;
    return u64_member(*id, Name{"request: id", {}}, 0, 9007199254740992ull);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string query_kind_name(predict::Query::Kind kind) {
  switch (kind) {
    case predict::Query::Kind::kChaseLatency: return "chase-latency";
    case predict::Query::Kind::kStreamLatency: return "stream-latency";
    case predict::Query::Kind::kStreamBandwidth: return "stream-bandwidth";
    case predict::Query::Kind::kRandomBandwidth: return "random-bandwidth";
    case predict::Query::Kind::kNocLatency: return "noc-latency";
  }
  return "chase-latency";
}

std::string query_canonical_json(const predict::Query& query) {
  std::string out = "{\"kind\":\"" + query_kind_name(query.kind) + "\"";
  out += ",\"footprint_bytes\":" + std::to_string(query.footprint_bytes);
  out += ",\"page_bytes\":" + std::to_string(query.page_bytes);
  out += ",\"dscr\":" + std::to_string(query.dscr);
  out += std::string(",\"pattern\":\"") + pattern_name(query.pattern) + "\"";
  out += ",\"stride_lines\":" + std::to_string(query.stride_lines);
  out += ",\"consumer_chip\":" + std::to_string(query.consumer_chip);
  out += ",\"home_chip\":" + std::to_string(query.home_chip);
  out += ",\"read\":" + common::json_number(query.mix.read);
  out += ",\"write\":" + common::json_number(query.mix.write);
  out += ",\"chips\":" + std::to_string(query.chips);
  out += ",\"cores\":" + std::to_string(query.cores);
  out += ",\"threads\":" + std::to_string(query.threads);
  out += ",\"streams\":" + std::to_string(query.streams);
  out += "}";
  return out;
}

std::string validate_query(const predict::Query& query,
                           const sim::MachineSpec& spec) {
  const int chips = spec.system.total_chips();
  const auto chip_range = [&](const char* what, int chip) -> std::string {
    if (chip >= 0 && chip < chips) return "";
    return std::string(what) + " must be in [0, " + std::to_string(chips) +
           ") for this machine";
  };
  switch (query.kind) {
    case predict::Query::Kind::kChaseLatency:
    case predict::Query::Kind::kStreamLatency: {
      std::string err = chip_range("consumer_chip", query.consumer_chip);
      if (err.empty()) err = chip_range("home_chip", query.home_chip);
      if (err.empty() && query.dscr < 1)
        err = "dscr must be >= 1 for latency queries (1 = prefetch off)";
      return err;
    }
    case predict::Query::Kind::kStreamBandwidth:
    case predict::Query::Kind::kRandomBandwidth: {
      if (query.chips > chips)
        return "chips must be <= " + std::to_string(chips) +
               " for this machine";
      if (query.cores > spec.system.cores_per_chip)
        return "cores must be <= " +
               std::to_string(spec.system.cores_per_chip) +
               " for this machine";
      if (query.threads > spec.system.processor.core.smt_threads)
        return "threads must be <= " +
               std::to_string(spec.system.processor.core.smt_threads) +
               " for this machine";
      return "";
    }
    case predict::Query::Kind::kNocLatency: {
      std::string err = chip_range("consumer_chip", query.consumer_chip);
      if (err.empty()) err = chip_range("home_chip", query.home_chip);
      return err;
    }
  }
  return "";
}

std::string error_response(const std::optional<std::uint64_t>& id,
                           const std::string& message) {
  return id_prefix(id) + "\"ok\": false, \"error\": " +
         common::json_quote(message) + "}\n";
}

std::string query_response(const std::optional<std::uint64_t>& id,
                           const std::vector<AnswerWire>& answers,
                           bool batch) {
  std::string out = id_prefix(id) + "\"ok\": true, ";
  if (!batch) {
    const AnswerWire& a = answers.front();
    out += "\"value\": " + common::json_number(a.value) +
           ", \"analytic\": " + (a.analytic ? "true" : "false") +
           ", \"cached\": " + (a.cached ? "true" : "false") + "}\n";
    return out;
  }
  std::string values = "[";
  std::string analytic = "[";
  std::string cached = "[";
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (i != 0) {
      values += ", ";
      analytic += ", ";
      cached += ", ";
    }
    values += common::json_number(answers[i].value);
    analytic += answers[i].analytic ? "true" : "false";
    cached += answers[i].cached ? "true" : "false";
  }
  out += "\"values\": " + values + "], \"analytic\": " + analytic +
         "], \"cached\": " + cached + "]}\n";
  return out;
}

std::string ping_response(const std::optional<std::uint64_t>& id) {
  return id_prefix(id) + "\"ok\": true, \"pong\": true}\n";
}

std::string shutdown_response(const std::optional<std::uint64_t>& id) {
  return id_prefix(id) + "\"ok\": true, \"stopping\": true}\n";
}

std::string stats_response(
    const std::optional<std::uint64_t>& id,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  std::string out = id_prefix(id) + "\"ok\": true, \"stats\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) out += ", ";
    out += common::json_quote(counters[i].first) + ": " +
           std::to_string(counters[i].second);
  }
  out += "}}\n";
  return out;
}

}  // namespace p8::serve
