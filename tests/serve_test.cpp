// Black-box harness for the p8serve daemon (src/serve, docs/SERVE.md).
//
// The daemon's whole contract is driven from the outside: a real
// Server on a real Unix-domain socket, spoken to through the line
// protocol only.  The layers get their own sections too — protocol
// parsing/rendering (pure functions), the content-addressed
// ResultCache (single-flight + LRU contracts), Server::handle_line
// (transport-free request dispatch) — and the daemon-level sections
// then pin what the stack guarantees end to end:
//
//  * every answer, cached or fresh, is byte-identical to running the
//    Predictor / event simulator directly;
//  * hostile input (garbage, oversized, truncated, schema-violating
//    frames) gets a schema-checked error response and never kills
//    the daemon;
//  * seeded random query streams from N concurrent clients produce
//    bit-identical answers to a single-client serial replay, with
//    `serve.cache_hits` exactly the stream's duplicate count
//    (single-flight dedup makes that deterministic);
//  * crash recovery: a stale socket file is reclaimed, a live daemon
//    or a non-socket file is refused.
//
// Concurrency-heavy cases carry "Concurrent" in their names so the
// CI TSan job can select them with --gtest_filter=*Concurrent*.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "predict/machine_predict.hpp"
#include "proptest.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/machine/spec.hpp"

namespace p8 {
namespace {

// ---- helpers --------------------------------------------------------------

std::string test_socket_path() {
  static std::atomic<int> next{0};
  return "/tmp/p8s-" + std::to_string(::getpid()) + "-" +
         std::to_string(next.fetch_add(1)) + ".sock";
}

serve::ServerOptions daemon_options() {
  serve::ServerOptions options;
  options.socket_path = test_socket_path();
  options.sim_threads = 2;  // keep test pools small
  return options;
}

/// In-process daemon on a real socket, torn down on scope exit.
struct Daemon {
  explicit Daemon(const serve::ServerOptions& options)
      : server(options) {
    server.start();
  }
  ~Daemon() { server.stop(); }
  const std::string& path() const { return server.options().socket_path; }
  serve::Server server;
};

/// A deterministically simulation-required chase query (DSCR >= 2 is
/// never analytic-servable) with a working set small enough that the
/// event simulator answers in microseconds.
std::string chase_line(std::uint64_t footprint_bytes, int dscr = 2) {
  return "{\"verb\": \"query\", \"machine\": \"e870\", \"query\": "
         "{\"kind\": \"chase-latency\", \"footprint_bytes\": " +
         std::to_string(footprint_bytes) +
         ", \"dscr\": " + std::to_string(dscr) + "}}";
}

predict::Query chase_query(std::uint64_t footprint_bytes, int dscr = 2) {
  predict::Query q;
  q.kind = predict::Query::Kind::kChaseLatency;
  q.footprint_bytes = footprint_bytes;
  q.dscr = dscr;
  return q;
}

common::Json parse_response(const std::string& response) {
  return common::Json::parse(response);
}

double response_value(const std::string& response) {
  const common::Json doc = parse_response(response);
  const common::Json* value = doc.find("value");
  EXPECT_NE(value, nullptr) << response;
  return value != nullptr ? value->number : 0.0;
}

bool response_ok(const std::string& response) {
  const common::Json doc = parse_response(response);
  const common::Json* ok = doc.find("ok");
  return ok != nullptr && ok->kind == common::Json::Kind::kBool &&
         ok->boolean;
}

bool response_cached(const std::string& response) {
  const common::Json doc = parse_response(response);
  const common::Json* cached = doc.find("cached");
  return cached != nullptr && cached->boolean;
}

/// Every error response must be exactly {"id"?: N, "ok": false,
/// "error": "<nonempty>"} — no extra members, no other shapes.
void check_error_schema(const std::string& response,
                        bool expect_id = false) {
  SCOPED_TRACE(response);
  const common::Json doc = parse_response(response);
  ASSERT_EQ(doc.kind, common::Json::Kind::kObject);
  std::size_t expected_members = 2;
  const common::Json* id = doc.find("id");
  if (expect_id) {
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->kind, common::Json::Kind::kNumber);
    ++expected_members;
  } else {
    EXPECT_EQ(id, nullptr);
  }
  EXPECT_EQ(doc.object.size(), expected_members);
  const common::Json* ok = doc.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->kind, common::Json::Kind::kBool);
  EXPECT_FALSE(ok->boolean);
  const common::Json* error = doc.find("error");
  ASSERT_NE(error, nullptr);
  ASSERT_EQ(error->kind, common::Json::Kind::kString);
  EXPECT_FALSE(error->string.empty());
}

std::uint64_t stat_of(const std::string& stats_response,
                      const std::string& name) {
  const common::Json doc = parse_response(stats_response);
  const common::Json* stats = doc.find("stats");
  EXPECT_NE(stats, nullptr) << stats_response;
  if (stats == nullptr) return 0;
  const common::Json* value = stats->find(name);
  EXPECT_NE(value, nullptr) << name << " missing in " << stats_response;
  return value == nullptr ? 0 : static_cast<std::uint64_t>(value->number);
}

/// Raw byte-level socket access, for frames the Client helper cannot
/// produce (truncated, unterminated).
int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  return fd;
}

std::string raw_read_all(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0)
    out.append(buf, static_cast<std::size_t>(n));
  return out;
}

/// An inline machine selector for preset `name`: the compact dump of
/// its canonical spec (schema order), or the same spec with its
/// top-level members reversed — an equal machine spelled differently.
std::string inline_spec(const std::string& name, bool schema_order = true) {
  common::Json doc = common::Json::parse(sim::machine_spec(name).to_json());
  if (!schema_order) std::reverse(doc.object.begin(), doc.object.end());
  return common::json_dump(doc);
}

/// A single-query request line selecting its machine by `machine`,
/// which is either a quoted preset name or an inline spec object.
std::string query_line(const std::string& machine, const std::string& query) {
  return "{\"verb\": \"query\", \"machine\": " + machine +
         ", \"query\": " + query + "}";
}

// ---- protocol: parsing ----------------------------------------------------

TEST(ServeProtocolTest, ParsesFullSingleQuery) {
  const serve::Request r = serve::parse_request(
      "{\"verb\": \"query\", \"id\": 12, \"machine\": \"e880\", "
      "\"query\": {\"kind\": \"stream-bandwidth\", \"chips\": 4, "
      "\"cores\": 8, \"threads\": 8, \"read\": 1, \"write\": 0}}");
  EXPECT_EQ(r.verb, serve::Request::Verb::kQuery);
  ASSERT_TRUE(r.id.has_value());
  EXPECT_EQ(*r.id, 12u);
  EXPECT_EQ(r.machine_name, "e880");
  EXPECT_TRUE(r.machine_inline_json.empty());
  ASSERT_EQ(r.queries.size(), 1u);
  EXPECT_FALSE(r.batch);
  EXPECT_EQ(r.queries[0].kind, predict::Query::Kind::kStreamBandwidth);
  EXPECT_EQ(r.queries[0].chips, 4);
  EXPECT_EQ(r.queries[0].mix.read, 1.0);
  EXPECT_EQ(r.queries[0].mix.write, 0.0);
}

TEST(ServeProtocolTest, ParsesBatchInArrayOrder) {
  const serve::Request r = serve::parse_request(
      "{\"verb\": \"query\", \"machine\": \"e870\", \"queries\": "
      "[{\"kind\": \"noc-latency\", \"home_chip\": 3}, "
      "{\"kind\": \"chase-latency\", \"footprint_bytes\": 4096}]}");
  EXPECT_TRUE(r.batch);
  ASSERT_EQ(r.queries.size(), 2u);
  EXPECT_EQ(r.queries[0].kind, predict::Query::Kind::kNocLatency);
  EXPECT_EQ(r.queries[0].home_chip, 3);
  EXPECT_EQ(r.queries[1].footprint_bytes, 4096u);
}

TEST(ServeProtocolTest, InlineMachineCanonicalizes) {
  const serve::Request r = serve::parse_request(
      "{\"verb\": \"query\", \"machine\": { \"system\" :\n"
      "{ \"name\" : \"x\" } }, \"query\": {\"kind\": \"noc-latency\"}}");
  EXPECT_TRUE(r.machine_name.empty());
  // Whitespace-insensitive: the inline object re-renders compactly.
  EXPECT_EQ(r.machine_inline_json, "{\"system\":{\"name\":\"x\"}}");
}

TEST(ServeProtocolTest, SyntaxErrorCarriesLineAndColumn) {
  try {
    serve::parse_request("{\"verb\": \n oops}");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("column"), std::string::npos)
        << e.what();
  }
}

void expect_parse_error(const std::string& line,
                        const std::string& needle) {
  try {
    serve::parse_request(line);
    FAIL() << "accepted: " << line;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic \"" << e.what() << "\" lacks \"" << needle << "\"";
  }
}

TEST(ServeProtocolTest, SchemaViolationsNameTheOffendingPath) {
  expect_parse_error("[1, 2]", "must be an object");
  expect_parse_error("{\"machine\": \"e870\"}", "missing \"verb\"");
  expect_parse_error("{\"verb\": \"frobnicate\"}", "unknown verb");
  expect_parse_error("{\"verb\": \"query\", \"bogus\": 1}",
                     "unknown member \"bogus\"");
  expect_parse_error(
      "{\"verb\": \"query\", \"machine\": \"e870\", "
      "\"query\": {\"kind\": \"chase-latency\", \"typo\": 1}}",
      "unknown member \"query.typo\"");
  expect_parse_error(
      "{\"verb\": \"query\", \"machine\": \"e870\", \"queries\": "
      "[{\"kind\": \"chase-latency\"}, {\"oops\": 1}]}",
      "queries[1].oops");
  expect_parse_error(
      "{\"verb\": \"query\", \"machine\": \"e870\", "
      "\"query\": {\"kind\": 3}}",
      "query.kind must be a string");
  expect_parse_error(
      "{\"verb\": \"query\", \"machine\": \"e870\", "
      "\"query\": {\"kind\": \"warp-drive\"}}",
      "chase-latency|stream-latency");
  expect_parse_error(
      "{\"verb\": \"query\", \"machine\": \"e870\", "
      "\"query\": {\"kind\": \"chase-latency\", \"dscr\": 99}}",
      "query.dscr must be between 0 and 7");
  expect_parse_error(
      "{\"verb\": \"query\", \"machine\": \"e870\", "
      "\"query\": {\"kind\": \"chase-latency\", "
      "\"footprint_bytes\": 1.5}}",
      "non-negative integer");
  expect_parse_error(
      "{\"verb\": \"query\", \"machine\": \"e870\", "
      "\"query\": {\"kind\": \"chase-latency\", \"read\": -1}}",
      "mix must be non-negative");
  expect_parse_error("{\"verb\": \"ping\", \"machine\": \"e870\"}",
                     "only valid with verb \"query\"");
  expect_parse_error("{\"verb\": \"query\", \"machine\": \"e870\"}",
                     "exactly one of");
  expect_parse_error(
      "{\"verb\": \"query\", \"machine\": \"e870\", "
      "\"query\": {\"kind\": \"noc-latency\"}, \"queries\": []}",
      "exactly one of");
  expect_parse_error(
      "{\"verb\": \"query\", \"machine\": \"e870\", \"queries\": []}",
      "must not be empty");
  expect_parse_error("{\"verb\": \"query\", \"machine\": \"\", "
                     "\"query\": {\"kind\": \"noc-latency\"}}",
                     "must not be empty");
  expect_parse_error("{\"verb\": \"query\", \"machine\": 7, "
                     "\"query\": {\"kind\": \"noc-latency\"}}",
                     "preset name");
  expect_parse_error("{\"verb\": \"ping\", \"id\": -3}",
                     "non-negative integer");
  expect_parse_error("{\"verb\": \"ping\", \"id\": 1.25}",
                     "non-negative integer");
}

TEST(ServeProtocolTest, OversizedBatchRejected) {
  std::string line =
      "{\"verb\": \"query\", \"machine\": \"e870\", \"queries\": [";
  for (int i = 0; i < 4097; ++i) {
    if (i != 0) line += ",";
    line += "{\"kind\": \"noc-latency\"}";
  }
  line += "]}";
  expect_parse_error(line, "4096");
}

TEST(ServeProtocolTest, BestEffortIdSurvivesSchemaErrors) {
  EXPECT_FALSE(serve::request_id_best_effort("not json").has_value());
  EXPECT_FALSE(serve::request_id_best_effort("{\"id\": -1}").has_value());
  const auto id =
      serve::request_id_best_effort("{\"id\": 41, \"bogus\": true}");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 41u);
}

// ---- protocol: canonical form and validation ------------------------------

TEST(ServeProtocolTest, CanonicalQueryJsonIsFixedBytes) {
  const predict::Query q;  // all defaults
  EXPECT_EQ(serve::query_canonical_json(q),
            "{\"kind\":\"chase-latency\",\"footprint_bytes\":1048576,"
            "\"page_bytes\":65536,\"dscr\":1,\"pattern\":\"random\","
            "\"stride_lines\":1,\"consumer_chip\":0,\"home_chip\":0,"
            "\"read\":2,\"write\":1,\"chips\":1,\"cores\":1,\"threads\":1,"
            "\"streams\":1}");
}

TEST(ServeProtocolTest, CanonicalQueryJsonReparsesToItself) {
  P8_PROP(gen, 50, 0x5e12e) {
    predict::Query q;
    q.kind = gen.pick({predict::Query::Kind::kChaseLatency,
                       predict::Query::Kind::kStreamLatency,
                       predict::Query::Kind::kStreamBandwidth,
                       predict::Query::Kind::kRandomBandwidth,
                       predict::Query::Kind::kNocLatency});
    q.footprint_bytes = gen.range(1, 1u << 30);
    q.page_bytes = 1ull << gen.range(6, 24);
    q.dscr = gen.int_range(0, 7);
    q.pattern = gen.pick({ubench::ChasePattern::kRandom,
                          ubench::ChasePattern::kForwardStride,
                          ubench::ChasePattern::kBackwardStride});
    q.stride_lines = gen.range(1, 1u << 12);
    q.consumer_chip = gen.int_range(0, 15);
    q.home_chip = gen.int_range(0, 15);
    q.mix = sim::RwMix{gen.real_range(0.0, 4.0), gen.real_range(0.1, 4.0)};
    q.chips = gen.int_range(1, 16);
    q.cores = gen.int_range(1, 12);
    q.threads = gen.int_range(1, 8);
    q.streams = gen.int_range(1, 64);
    const std::string canonical = serve::query_canonical_json(q);
    const serve::Request r = serve::parse_request(
        "{\"verb\": \"query\", \"machine\": \"e870\", \"query\": " +
        canonical + "}");
    ASSERT_EQ(r.queries.size(), 1u);
    EXPECT_EQ(serve::query_canonical_json(r.queries[0]), canonical);
  }
}

TEST(ServeProtocolTest, ValidateQueryEnforcesMachineRanges) {
  const sim::MachineSpec spec = sim::machine_spec("e870");  // 8 chips
  predict::Query chase = chase_query(1 << 20);
  EXPECT_EQ(serve::validate_query(chase, spec), "");
  chase.consumer_chip = 8;
  EXPECT_NE(serve::validate_query(chase, spec).find("consumer_chip"),
            std::string::npos);
  chase.consumer_chip = 0;
  chase.home_chip = 100;
  EXPECT_NE(serve::validate_query(chase, spec).find("home_chip"),
            std::string::npos);
  chase.home_chip = 0;
  chase.dscr = 0;
  EXPECT_NE(serve::validate_query(chase, spec).find("dscr"),
            std::string::npos);

  predict::Query bw;
  bw.kind = predict::Query::Kind::kStreamBandwidth;
  bw.chips = 9;
  EXPECT_NE(serve::validate_query(bw, spec).find("chips"),
            std::string::npos);
  bw.chips = 8;
  bw.cores = 99;
  EXPECT_NE(serve::validate_query(bw, spec).find("cores"),
            std::string::npos);
  bw.cores = 1;
  bw.threads = 9;
  EXPECT_NE(serve::validate_query(bw, spec).find("threads"),
            std::string::npos);
  bw.threads = 8;
  EXPECT_EQ(serve::validate_query(bw, spec), "");
}

// ---- protocol: response rendering -----------------------------------------

TEST(ServeProtocolTest, ResponsesRenderStableShapes) {
  EXPECT_EQ(serve::ping_response(std::nullopt),
            "{\"ok\": true, \"pong\": true}\n");
  EXPECT_EQ(serve::ping_response(7),
            "{\"id\": 7, \"ok\": true, \"pong\": true}\n");
  EXPECT_EQ(serve::shutdown_response(std::nullopt),
            "{\"ok\": true, \"stopping\": true}\n");
  EXPECT_EQ(serve::error_response(3, "bad \"thing\"\n"),
            "{\"id\": 3, \"ok\": false, \"error\": "
            "\"bad \\\"thing\\\"\\n\"}\n");
  EXPECT_EQ(serve::query_response(
                std::nullopt, {serve::AnswerWire{1.5, true, false}}, false),
            "{\"ok\": true, \"value\": 1.5, \"analytic\": true, "
            "\"cached\": false}\n");
  EXPECT_EQ(serve::query_response(9,
                                  {serve::AnswerWire{1.5, true, false},
                                   serve::AnswerWire{2.0, false, true}},
                                  true),
            "{\"id\": 9, \"ok\": true, \"values\": [1.5, 2], "
            "\"analytic\": [true, false], \"cached\": [false, true]}\n");
  EXPECT_EQ(serve::stats_response(std::nullopt, {{"serve.requests", 4}}),
            "{\"ok\": true, \"stats\": {\"serve.requests\": 4}}\n");
}

// ---- content addressing ---------------------------------------------------

TEST(ServeCacheTest, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(serve::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(serve::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(serve::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(ServeCacheTest, KeyIsMachinePlusQueryBytes) {
  EXPECT_EQ(serve::cache_key("m", "q"), "m\nq");
  EXPECT_EQ(serve::cache_key_hash("m", "q"), serve::fnv1a64("m\nq"));
  // The separator keeps (machine, query) splits distinct.
  EXPECT_NE(serve::cache_key("ab", "c"), serve::cache_key("a", "bc"));
}

// ---- result cache ---------------------------------------------------------

TEST(ServeCacheTest, MissComputesThenHitsAreMemoized) {
  serve::ResultCache cache(4);
  int runs = 0;
  const auto compute = [&] {
    ++runs;
    return 2.5;
  };
  const auto first = cache.get_or_compute("m", "q", compute);
  EXPECT_EQ(first.value, 2.5);
  EXPECT_FALSE(first.cached);
  const auto second = cache.get_or_compute("m", "q", compute);
  EXPECT_EQ(second.value, 2.5);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(runs, 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

std::vector<std::string> touch_sequence(serve::ResultCache& cache,
                                        const std::vector<int>& sequence) {
  for (const int k : sequence) {
    // Built with += — GCC 12's -Wrestrict false-positives on the
    // string operator+ overloads here.
    std::string query = "q";
    query += std::to_string(k);
    cache.get_or_compute("m", query, [k] { return static_cast<double>(k); });
  }
  return cache.keys_mru_order();
}

TEST(ServeCacheTest, LruContractAtCapacityOne) {
  serve::ResultCache cache(1);
  EXPECT_EQ(touch_sequence(cache, {0, 1, 2}),
            std::vector<std::string>{serve::cache_key("m", "q2")});
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.hits, 0u);
  // Re-touching the resident key is a hit even at capacity 1.
  cache.get_or_compute("m", "q2", [] { return 2.0; });
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ServeCacheTest, LruContractAtCapacityTwo) {
  serve::ResultCache cache(2);
  // 0, 1, touch 0 again (hit, moves to MRU), then 2 evicts 1, not 0.
  const auto keys = touch_sequence(cache, {0, 1, 0, 2});
  EXPECT_EQ(keys, (std::vector<std::string>{serve::cache_key("m", "q2"),
                                            serve::cache_key("m", "q0")}));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ServeCacheTest, LruThrashesAtNonDivisorCapacity) {
  // 5 keys round-robin through a 3-entry cache: strict LRU never
  // hits, and the eviction count is exact.
  serve::ResultCache cache(3);
  const auto keys = touch_sequence(cache, {0, 1, 2, 3, 4, 0, 1, 2, 3, 4});
  EXPECT_EQ(keys, (std::vector<std::string>{serve::cache_key("m", "q4"),
                                            serve::cache_key("m", "q3"),
                                            serve::cache_key("m", "q2")}));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 10u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 7u);
}

TEST(ServeCacheTest, SingleFlightConcurrentDuplicatesCountAsHits) {
  serve::ResultCache cache(4);
  std::atomic<int> runs{0};
  std::atomic<bool> computing{false};
  const auto slow_compute = [&] {
    computing.store(true);
    runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return 7.0;
  };
  std::thread first([&] {
    const auto outcome = cache.get_or_compute("m", "q", slow_compute);
    EXPECT_FALSE(outcome.cached);
    EXPECT_EQ(outcome.value, 7.0);
  });
  while (!computing.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i)
    waiters.emplace_back([&] {
      const auto outcome = cache.get_or_compute("m", "q", slow_compute);
      EXPECT_TRUE(outcome.cached);
      EXPECT_EQ(outcome.value, 7.0);
    });
  first.join();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(runs.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(ServeCacheTest, FailedComputeIsRetriedNotCached) {
  serve::ResultCache cache(4);
  int calls = 0;
  const auto flaky = [&] {
    if (++calls == 1) throw std::runtime_error("transient");
    return 1.0;
  };
  EXPECT_THROW(cache.get_or_compute("m", "q", flaky), std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  const auto outcome = cache.get_or_compute("m", "q", flaky);
  EXPECT_FALSE(outcome.cached);
  EXPECT_EQ(outcome.value, 1.0);
  EXPECT_EQ(calls, 2);
}

TEST(ServeCacheTest, DebugSkewPerturbsStoredValueOnly) {
  serve::ResultCache cache(4);
  cache.set_debug_value_skew(0.5);
  const auto miss = cache.get_or_compute("m", "q", [] { return 2.0; });
  EXPECT_EQ(miss.value, 2.0);  // the computing caller sees the truth
  const auto hit = cache.get_or_compute("m", "q", [] { return 2.0; });
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.value, 2.5);  // the memoized copy is skewed
}

// ---- server dispatch (no socket) ------------------------------------------

TEST(ServeServerTest, AdminVerbsRoundTrip) {
  serve::Server server(daemon_options());
  EXPECT_EQ(server.handle_line("{\"verb\": \"ping\", \"id\": 1}"),
            "{\"id\": 1, \"ok\": true, \"pong\": true}\n");
  const std::string stats = server.handle_line("{\"verb\": \"stats\"}");
  EXPECT_TRUE(response_ok(stats)) << stats;
  for (const char* name :
       {"serve.requests", "serve.queries", "serve.analytic", "serve.sim",
        "serve.cache_hits", "serve.cache_misses", "serve.cache_evictions",
        "serve.errors", "serve.connections", "serve.machines_loaded",
        "serve.machines_evicted", "serve.latency.le_100us",
        "serve.latency.le_1ms", "serve.latency.le_10ms",
        "serve.latency.le_100ms", "serve.latency.le_1s",
        "serve.latency.gt_1s"})
    EXPECT_NO_FATAL_FAILURE(stat_of(stats, name)) << name;
  EXPECT_FALSE(server.stop_requested());
  EXPECT_EQ(server.handle_line("{\"verb\": \"shutdown\"}"),
            "{\"ok\": true, \"stopping\": true}\n");
  EXPECT_TRUE(server.stop_requested());
}

TEST(ServeServerTest, HostileLinesGetSchemaCheckedErrors) {
  serve::Server server(daemon_options());
  for (const char* line : {
           "garbage",
           "{",
           "\x01\x02\x03",
           "[1]",
           "{\"verb\": \"query\"}",
           "{\"verb\": \"query\", \"machine\": \"no-such-machine\", "
           "\"query\": {\"kind\": \"noc-latency\"}}",
           "{\"verb\": \"query\", \"machine\": \"e870\", "
           "\"query\": {\"kind\": \"noc-latency\", \"home_chip\": 3000}}",
           "{\"verb\": \"query\", \"machine\": {\"bogus_member\": 1}, "
           "\"query\": {\"kind\": \"noc-latency\"}}",
       })
    check_error_schema(server.handle_line(line));
  // The id still comes back on schema errors (best-effort extraction).
  check_error_schema(
      server.handle_line("{\"id\": 6, \"verb\": \"nope\"}"),
      /*expect_id=*/true);
  check_error_schema(
      server.handle_line("{\"verb\": \"query\", \"id\": 8, \"machine\": "
                         "\"e870\", \"query\": {\"kind\": "
                         "\"chase-latency\", \"consumer_chip\": 99}}"),
      /*expect_id=*/true);
  const std::string stats = server.handle_line("{\"verb\": \"stats\"}");
  EXPECT_EQ(stat_of(stats, "serve.errors"), 10u);
}

TEST(ServeServerTest, AnalyticAnswerIsBitIdenticalToPredictor) {
  serve::Server server(daemon_options());
  const std::string response = server.handle_line(
      "{\"verb\": \"query\", \"machine\": \"e870\", \"query\": "
      "{\"kind\": \"stream-bandwidth\", \"chips\": 2, \"cores\": 8, "
      "\"threads\": 8, \"read\": 2, \"write\": 1}}");
  ASSERT_TRUE(response_ok(response)) << response;
  const predict::Predictor predictor(sim::machine_spec("e870"));
  // The wire query carries the predict::Query defaults for everything
  // it omits — including dscr = 1 — so the direct call must match.
  const double direct =
      predictor.stream_gbs(2, 8, 8, sim::RwMix{2.0, 1.0}, /*dscr=*/1);
  EXPECT_EQ(response_value(response), direct);
  // Byte identity, not just double equality: the response embeds
  // exactly json_number(direct).
  EXPECT_NE(response.find("\"value\": " + common::json_number(direct)),
            std::string::npos)
      << response;
}

TEST(ServeServerTest, SimulatedAnswerIsBitIdenticalDirectAndCached) {
  serve::Server server(daemon_options());
  common::ThreadPool pool(1);
  predict::QueryRouter router(sim::machine_spec("e870"), pool);
  const predict::Query q = chase_query(128 * 1024);
  ASSERT_FALSE(router.analytic_servable(q));
  const double direct = router.answer(q).value;

  const std::string miss = server.handle_line(chase_line(128 * 1024));
  ASSERT_TRUE(response_ok(miss)) << miss;
  EXPECT_FALSE(response_cached(miss));
  EXPECT_EQ(response_value(miss), direct);
  EXPECT_NE(miss.find("\"value\": " + common::json_number(direct)),
            std::string::npos);

  const std::string hit = server.handle_line(chase_line(128 * 1024));
  EXPECT_TRUE(response_cached(hit));
  EXPECT_EQ(response_value(hit), direct);
  // Cached and fresh responses differ only in the cached flag.
  EXPECT_NE(hit.find("\"value\": " + common::json_number(direct)),
            std::string::npos);
}

TEST(ServeServerTest, InlineSpecSharesCacheWithItsPreset) {
  serve::Server server(daemon_options());
  const std::string miss = server.handle_line(chase_line(256 * 1024));
  ASSERT_TRUE(response_ok(miss));
  EXPECT_FALSE(response_cached(miss));
  // The same machine written out inline addresses the same entry.
  std::string compact =
      common::json_dump(common::Json::parse(
          sim::machine_spec("e870").to_json()));
  const std::string inline_line =
      "{\"verb\": \"query\", \"machine\": " + compact +
      ", \"query\": {\"kind\": \"chase-latency\", \"footprint_bytes\": " +
      std::to_string(256 * 1024) + ", \"dscr\": 2}}";
  const std::string hit = server.handle_line(inline_line);
  ASSERT_TRUE(response_ok(hit)) << hit;
  EXPECT_TRUE(response_cached(hit));
  EXPECT_EQ(response_value(hit), response_value(miss));
  const std::string stats = server.handle_line("{\"verb\": \"stats\"}");
  EXPECT_EQ(stat_of(stats, "serve.machines_loaded"), 1u);
}

TEST(ServeServerTest, BatchDedupesWithinTheRequest) {
  serve::Server server(daemon_options());
  const std::string response = server.handle_line(
      "{\"verb\": \"query\", \"machine\": \"e870\", \"queries\": ["
      "{\"kind\": \"noc-latency\", \"home_chip\": 4}, " +
      std::string("{\"kind\": \"chase-latency\", \"footprint_bytes\": "
                  "65536, \"dscr\": 2}, ") +
      "{\"kind\": \"chase-latency\", \"footprint_bytes\": 65536, "
      "\"dscr\": 2}]}");
  ASSERT_TRUE(response_ok(response)) << response;
  const common::Json doc = parse_response(response);
  const common::Json* values = doc.find("values");
  const common::Json* analytic = doc.find("analytic");
  const common::Json* cached = doc.find("cached");
  ASSERT_NE(values, nullptr);
  ASSERT_NE(analytic, nullptr);
  ASSERT_NE(cached, nullptr);
  ASSERT_EQ(values->array.size(), 3u);
  EXPECT_TRUE(analytic->array[0].boolean);
  EXPECT_FALSE(analytic->array[1].boolean);
  EXPECT_FALSE(analytic->array[2].boolean);
  // The duplicate pair: identical value, exactly one actually ran.
  EXPECT_EQ(values->array[1].number, values->array[2].number);
  EXPECT_NE(cached->array[1].boolean, cached->array[2].boolean);
  const std::string stats = server.handle_line("{\"verb\": \"stats\"}");
  EXPECT_EQ(stat_of(stats, "serve.sim"), 1u);
  EXPECT_EQ(stat_of(stats, "serve.cache_hits"), 1u);
  EXPECT_EQ(stat_of(stats, "serve.analytic"), 1u);
}

TEST(ServeServerTest, PerturbedCacheBreaksByteIdentity) {
  serve::ServerOptions options = daemon_options();
  options.debug_value_skew = 0.5;
  serve::Server server(options);
  const double fresh = response_value(
      server.handle_line(chase_line(64 * 1024)));
  const double cached = response_value(
      server.handle_line(chase_line(64 * 1024)));
  EXPECT_EQ(cached, fresh + 0.5);  // identity broken, by exactly the skew
}

TEST(ServeServerTest, WarmMachineStillValidatesEveryQuery) {
  serve::Server server(daemon_options());
  ASSERT_TRUE(response_ok(server.handle_line(
      query_line("\"e850c\"", "{\"kind\": \"noc-latency\", \"home_chip\": 1}"))));
  // e850c has 2 chips: the same error text a cold resolve produces.
  const std::string bad = query_line(
      "\"e850c\"", "{\"kind\": \"chase-latency\", \"consumer_chip\": 2}");
  const std::string expected = serve::error_response(
      std::nullopt, "query: consumer_chip must be in [0, 2) for this machine");
  EXPECT_EQ(server.handle_line(bad), expected);
  EXPECT_EQ(serve::Server(daemon_options()).handle_line(bad), expected);
  // A batch names the offending element from the warm spec too.
  EXPECT_EQ(
      server.handle_line(
          "{\"verb\": \"query\", \"machine\": " + inline_spec("e850c") +
          ", \"queries\": [{\"kind\": \"noc-latency\"}, "
          "{\"kind\": \"noc-latency\", \"home_chip\": 5}]}"),
      serve::error_response(
          std::nullopt,
          "queries[1]: home_chip must be in [0, 2) for this machine"));
  const std::string stats = server.handle_line("{\"verb\": \"stats\"}");
  EXPECT_EQ(stat_of(stats, "serve.machines_loaded"), 1u);
  EXPECT_EQ(stat_of(stats, "serve.errors"), 2u);
}

TEST(ServeServerTest, InvalidQueryLoadsNoMachine) {
  serve::Server server(daemon_options());
  check_error_schema(server.handle_line(query_line(
      "\"e870\"", "{\"kind\": \"chase-latency\", \"home_chip\": 99}")));
  const std::string stats = server.handle_line("{\"verb\": \"stats\"}");
  EXPECT_EQ(stat_of(stats, "serve.machines_loaded"), 0u);
}

TEST(ServeServerTest, AuditFailureIsNeverMemoized) {
  serve::Server server(daemon_options());
  // Members left out keep their default-constructed values, which
  // describe no real machine: a spec that parses but fails the audit.
  const std::string line =
      query_line("{\"system\": {\"sockets\": 2}}", "{\"kind\": \"noc-latency\"}");
  const std::string first = server.handle_line(line);
  check_error_schema(first);
  EXPECT_NE(first.find("machine audit failed"), std::string::npos) << first;
  EXPECT_EQ(server.handle_line(line), first);
  const std::string stats = server.handle_line("{\"verb\": \"stats\"}");
  EXPECT_EQ(stat_of(stats, "serve.machines_loaded"), 0u);
  EXPECT_EQ(stat_of(stats, "serve.errors"), 2u);
}

TEST(ServeServerTest, EvictionChurnMatchesDirectRouters) {
  serve::ServerOptions options = daemon_options();
  options.machine_capacity = 1;
  serve::Server server(options);
  common::ThreadPool pool(1);
  std::map<std::string, std::unique_ptr<predict::QueryRouter>> direct;
  for (const char* name : {"e870", "e880"})
    direct[name] = std::make_unique<predict::QueryRouter>(
        sim::machine_spec(name), pool);

  // Each request: one analytic and one simulation-required query.
  const std::string queries =
      "[{\"kind\": \"noc-latency\", \"home_chip\": 5}, "
      "{\"kind\": \"chase-latency\", \"footprint_bytes\": 65536, "
      "\"dscr\": 2}]";
  const std::vector<predict::Query> parsed =
      serve::parse_request("{\"verb\": \"query\", \"machine\": \"e870\", "
                           "\"queries\": " + queries + "}")
          .queries;
  std::set<std::string> simulated;  // machines whose chase already ran
  for (int round = 0; round < 2; ++round) {
    for (const auto& [name, machine] :
         std::vector<std::pair<std::string, std::string>>{
             {"e870", "\"e870\""},
             {"e880", "\"e880\""},
             {"e870", inline_spec("e870")}}) {
      SCOPED_TRACE(name + " round " + std::to_string(round));
      predict::QueryRouter& router = *direct[name];
      std::vector<serve::AnswerWire> wires;
      for (const predict::Query& q : parsed)
        wires.push_back(serve::AnswerWire{
            router.answer(q).value, router.analytic_servable(q),
            !router.analytic_servable(q) && !simulated.insert(name).second});
      EXPECT_EQ(server.handle_line("{\"verb\": \"query\", \"machine\": " +
                                   machine + ", \"queries\": " + queries +
                                   "}"),
                serve::query_response(std::nullopt, wires, true));
    }
  }
  // At capacity 1 each machine switch loads (and all but the first
  // evict); only inline-e870 -> e870 across the rounds stays warm.
  const std::string stats = server.handle_line("{\"verb\": \"stats\"}");
  EXPECT_EQ(stat_of(stats, "serve.machines_loaded"), 5u);
  EXPECT_EQ(stat_of(stats, "serve.machines_evicted"), 4u);
}

// ---- daemon over the socket -----------------------------------------------

TEST(ServeDaemonTest, EndToEndQueryStatsShutdownCycle) {
  auto daemon = std::make_unique<Daemon>(daemon_options());
  const std::string path = daemon->path();
  ASSERT_TRUE(serve::wait_for_server(path, 5.0));

  serve::Client client(path);
  EXPECT_EQ(client.request("{\"verb\": \"ping\"}"),
            "{\"ok\": true, \"pong\": true}");
  const std::string miss = client.request(chase_line(96 * 1024));
  ASSERT_TRUE(response_ok(miss)) << miss;
  const std::string hit = client.request(chase_line(96 * 1024));
  EXPECT_TRUE(response_cached(hit));
  EXPECT_EQ(response_value(hit), response_value(miss));

  const std::string stats = client.request("{\"verb\": \"stats\"}");
  EXPECT_EQ(stat_of(stats, "serve.cache_hits"), 1u);
  EXPECT_EQ(stat_of(stats, "serve.sim"), 1u);

  EXPECT_EQ(client.request("{\"verb\": \"shutdown\"}"),
            "{\"ok\": true, \"stopping\": true}");
  daemon->server.wait();
  // Clean shutdown removes the socket file — nothing leaks.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(ServeDaemonTest, CachedFreshDaemonAndDirectAnswersAgreeByteForByte) {
  // The acceptance contract: for a simulation-required query, the
  // first daemon answer (fresh), the memoized answer, a *new*
  // daemon's answer, and a direct QueryRouter run are all the same
  // bytes.
  const predict::Query q = chase_query(192 * 1024);
  common::ThreadPool pool(1);
  predict::QueryRouter router(sim::machine_spec("e870"), pool);
  const std::string expected = common::json_number(router.answer(q).value);

  std::vector<std::string> responses;
  for (int round = 0; round < 2; ++round) {
    Daemon daemon(daemon_options());
    ASSERT_TRUE(serve::wait_for_server(daemon.path(), 5.0));
    serve::Client client(daemon.path());
    responses.push_back(client.request(chase_line(192 * 1024)));
    responses.push_back(client.request(chase_line(192 * 1024)));
  }
  for (const std::string& response : responses)
    EXPECT_NE(response.find("\"value\": " + expected), std::string::npos)
        << response << " vs expected value " << expected;
}

TEST(ServeDaemonTest, CacheChurnEvictionsAreExact) {
  serve::ServerOptions options = daemon_options();
  options.cache_capacity = 2;
  Daemon daemon(options);
  ASSERT_TRUE(serve::wait_for_server(daemon.path(), 5.0));
  serve::Client client(daemon.path());
  // Three distinct entries round-robin through a 2-entry cache,
  // twice: strict LRU never hits and evicts exactly 4 times.
  const std::uint64_t footprints[] = {64 * 1024, 96 * 1024, 128 * 1024};
  for (int round = 0; round < 2; ++round)
    for (const std::uint64_t footprint : footprints) {
      const std::string response = client.request(chase_line(footprint));
      ASSERT_TRUE(response_ok(response)) << response;
      EXPECT_FALSE(response_cached(response));
    }
  const std::string stats = client.request("{\"verb\": \"stats\"}");
  EXPECT_EQ(stat_of(stats, "serve.cache_hits"), 0u);
  EXPECT_EQ(stat_of(stats, "serve.cache_misses"), 6u);
  EXPECT_EQ(stat_of(stats, "serve.cache_evictions"), 4u);
  EXPECT_EQ(stat_of(stats, "serve.sim"), 6u);
}

TEST(ServeDaemonTest, StaleSocketFromCrashedDaemonIsReclaimed) {
  const std::string path = test_socket_path();
  // Simulate a crash: bind the path, then drop the fd without
  // unlinking — exactly what a SIGKILLed daemon leaves behind.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ::close(stale);
  ASSERT_EQ(::access(path.c_str(), F_OK), 0);

  serve::ServerOptions options = daemon_options();
  options.socket_path = path;
  Daemon daemon(options);
  ASSERT_TRUE(serve::wait_for_server(path, 5.0));
  EXPECT_EQ(serve::request_once(path, "{\"verb\": \"ping\"}"),
            "{\"ok\": true, \"pong\": true}");
}

TEST(ServeDaemonTest, LiveDaemonAndForeignFilesAreRefused) {
  Daemon daemon(daemon_options());
  ASSERT_TRUE(serve::wait_for_server(daemon.path(), 5.0));
  serve::ServerOptions clash = daemon_options();
  clash.socket_path = daemon.path();
  serve::Server second(clash);
  EXPECT_THROW(second.start(), std::runtime_error);
  // The live daemon is unharmed by the refused takeover.
  EXPECT_EQ(serve::request_once(daemon.path(), "{\"verb\": \"ping\"}"),
            "{\"ok\": true, \"pong\": true}");

  // A regular file at the path is not ours to delete.
  const std::string file_path = test_socket_path();
  {
    std::FILE* f = std::fopen(file_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("precious data\n", f);
    std::fclose(f);
  }
  serve::ServerOptions on_file = daemon_options();
  on_file.socket_path = file_path;
  serve::Server third(on_file);
  EXPECT_THROW(third.start(), std::runtime_error);
  EXPECT_EQ(::access(file_path.c_str(), F_OK), 0);  // still there
  ::unlink(file_path.c_str());
}

TEST(ServeDaemonTest, OversizedFrameRejectedWithoutKillingTheDaemon) {
  serve::ServerOptions options = daemon_options();
  options.max_line_bytes = 256;
  Daemon daemon(options);
  ASSERT_TRUE(serve::wait_for_server(daemon.path(), 5.0));
  serve::Client client(daemon.path());
  const std::string big(5000, 'x');
  const std::string response = client.request(big);
  check_error_schema(response);
  EXPECT_NE(response.find("oversized frame"), std::string::npos);
  // That connection is closed...
  EXPECT_THROW(client.request("{\"verb\": \"ping\"}"),
               std::runtime_error);
  // ...but the daemon lives on.
  EXPECT_EQ(serve::request_once(daemon.path(), "{\"verb\": \"ping\"}"),
            "{\"ok\": true, \"pong\": true}");
}

TEST(ServeDaemonTest, TruncatedFrameRejectedWithoutKillingTheDaemon) {
  Daemon daemon(daemon_options());
  ASSERT_TRUE(serve::wait_for_server(daemon.path(), 5.0));
  const int fd = raw_connect(daemon.path());
  const char frame[] = "{\"verb\": \"ping\"";  // no newline, ever
  ASSERT_EQ(::send(fd, frame, sizeof frame - 1, 0),
            static_cast<ssize_t>(sizeof frame - 1));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::string response = raw_read_all(fd);
  ::close(fd);
  ASSERT_FALSE(response.empty());
  check_error_schema(response.substr(0, response.size() - 1));
  EXPECT_NE(response.find("truncated frame"), std::string::npos);
  EXPECT_EQ(serve::request_once(daemon.path(), "{\"verb\": \"ping\"}"),
            "{\"ok\": true, \"pong\": true}");
}

TEST(ServeDaemonTest, GarbageBytesKeepTheConnectionServing) {
  Daemon daemon(daemon_options());
  ASSERT_TRUE(serve::wait_for_server(daemon.path(), 5.0));
  serve::Client client(daemon.path());
  const std::string garbage = "\x01\x7f)(*&^%$";
  check_error_schema(client.request(garbage));
  // Same connection, next line: business as usual.
  EXPECT_EQ(client.request("{\"verb\": \"ping\"}"),
            "{\"ok\": true, \"pong\": true}");
}

// ---- concurrent clients vs serial replay ----------------------------------

struct StreamStats {
  std::map<std::string, std::pair<double, bool>> answers;  // line -> (v, a)
  std::uint64_t cache_hits = 0;
  std::uint64_t sim = 0;
  std::uint64_t analytic = 0;
};

/// Replays `lines` against a fresh daemon with `clients` concurrent
/// connections (round-robin sharding) and returns every answer plus
/// the daemon's own accounting.
StreamStats replay_stream(const std::vector<std::string>& lines,
                          int clients) {
  serve::ServerOptions options = daemon_options();
  options.cache_capacity = 1024;  // no eviction: hits == duplicates
  Daemon daemon(options);
  EXPECT_TRUE(serve::wait_for_server(daemon.path(), 5.0));

  std::vector<std::map<std::string, std::pair<double, bool>>> shards(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      serve::Client client(daemon.path());
      for (std::size_t i = static_cast<std::size_t>(c); i < lines.size();
           i += static_cast<std::size_t>(clients)) {
        const std::string response = client.request(lines[i]);
        ASSERT_TRUE(response_ok(response))
            << lines[i] << " -> " << response;
        const common::Json doc = parse_response(response);
        shards[static_cast<std::size_t>(c)][lines[i]] = {
            doc.find("value")->number, doc.find("analytic")->boolean};
      }
    });
  for (auto& t : threads) t.join();

  StreamStats out;
  for (const auto& shard : shards)
    for (const auto& [line, answer] : shard) {
      const auto it = out.answers.find(line);
      if (it == out.answers.end()) {
        out.answers.emplace(line, answer);
      } else {
        // The same line answered identically on every connection.
        EXPECT_EQ(it->second.first, answer.first) << line;
        EXPECT_EQ(it->second.second, answer.second) << line;
      }
    }
  const std::string stats =
      serve::request_once(daemon.path(), "{\"verb\": \"stats\"}");
  out.cache_hits = stat_of(stats, "serve.cache_hits");
  out.sim = stat_of(stats, "serve.sim");
  out.analytic = stat_of(stats, "serve.analytic");
  return out;
}

TEST(ServeConcurrentTest, ClientsAreBitIdenticalToSerialReplay) {
  P8_PROP(gen, 3, 0x5eede) {
    // A seeded stream mixing always-analytic and always-simulated
    // queries, with duplicates by construction (footprints drawn
    // from a 4-value pool).
    std::vector<std::string> lines;
    std::size_t sim_occurrences = 0;
    std::set<std::string> unique_sim;
    for (int i = 0; i < 24; ++i) {
      if (gen.chance(0.4)) {
        lines.push_back(
            "{\"verb\": \"query\", \"machine\": \"e870\", \"query\": "
            "{\"kind\": \"noc-latency\", \"home_chip\": " +
            std::to_string(gen.int_range(0, 7)) + "}}");
      } else {
        const std::uint64_t footprint =
            static_cast<std::uint64_t>(
                gen.pick({64, 96, 128, 192})) * 1024;
        lines.push_back(chase_line(footprint));
        ++sim_occurrences;
        unique_sim.insert(lines.back());
      }
    }
    const std::uint64_t duplicates = sim_occurrences - unique_sim.size();

    const StreamStats serial = replay_stream(lines, 1);
    EXPECT_EQ(serial.cache_hits, duplicates);
    EXPECT_EQ(serial.sim, unique_sim.size());
    EXPECT_EQ(serial.analytic, lines.size() - sim_occurrences);

    for (const int clients : {2, 4, 8}) {
      const StreamStats concurrent = replay_stream(lines, clients);
      // Bit-identical answers, query by query...
      ASSERT_EQ(concurrent.answers.size(), serial.answers.size());
      for (const auto& [line, answer] : serial.answers) {
        const auto it = concurrent.answers.find(line);
        ASSERT_NE(it, concurrent.answers.end()) << line;
        EXPECT_EQ(it->second.first, answer.first)
            << clients << " clients diverged on " << line;
        EXPECT_EQ(it->second.second, answer.second) << line;
      }
      // ...and exact accounting: single-flight makes every duplicate
      // a cache hit no matter how the stream is sharded.
      EXPECT_EQ(concurrent.cache_hits, duplicates) << clients;
      EXPECT_EQ(concurrent.sim, unique_sim.size()) << clients;
      EXPECT_EQ(concurrent.analytic, lines.size() - sim_occurrences)
          << clients;
    }
  }
}

TEST(ServeConcurrentTest, MixedVerbBurstLeavesTheDaemonHealthy) {
  Daemon daemon(daemon_options());
  ASSERT_TRUE(serve::wait_for_server(daemon.path(), 5.0));
  std::vector<std::thread> threads;
  for (int c = 0; c < 6; ++c)
    threads.emplace_back([&, c] {
      serve::Client client(daemon.path());
      for (int i = 0; i < 10; ++i) {
        switch ((c + i) % 4) {
          case 0:
            EXPECT_EQ(client.request("{\"verb\": \"ping\"}"),
                      "{\"ok\": true, \"pong\": true}");
            break;
          case 1:
            EXPECT_TRUE(response_ok(
                client.request("{\"verb\": \"stats\"}")));
            break;
          case 2:
            EXPECT_TRUE(response_ok(client.request(
                chase_line(static_cast<std::uint64_t>(64 + 32 * (i % 3)) *
                           1024))));
            break;
          default:
            check_error_schema(client.request("{\"broken\":"));
        }
      }
    });
  for (auto& t : threads) t.join();
  const std::string stats =
      serve::request_once(daemon.path(), "{\"verb\": \"stats\"}");
  EXPECT_EQ(stat_of(stats, "serve.requests"), 61u);  // 60 + this stats
  // (c + i) % 4 == 3 has 14 solutions over c in [0,6) x i in [0,10).
  EXPECT_EQ(stat_of(stats, "serve.errors"), 14u);
}

TEST(ServeConcurrentTest, MachineResolutionUnderEvictionChurn) {
  // Three machines behind one warm slot, selected by preset name, by
  // schema-order inline spec (the warm selector) and by reordered
  // inline spec (always a full resolve); a fifth of the queries are
  // out of range for the machine, so the warm path's validation runs
  // under churn too.  Analytic queries only: their responses carry no
  // cache flag, so every byte is schedule-independent.
  P8_PROP(gen, 2, 0xc4a5e) {
    const std::vector<std::string> names = {"e850c", "e870", "e880"};
    std::vector<std::string> lines;
    for (int i = 0; i < 60; ++i) {
      const std::string& name = names[static_cast<std::size_t>(
          gen.int_range(0, 2))];
      const int form = gen.int_range(0, 2);
      const std::string machine =
          form == 0 ? "\"" + name + "\"" : inline_spec(name, form == 1);
      const int chip = gen.chance(0.2) ? 16 : gen.int_range(0, 1);
      lines.push_back(query_line(
          machine, "{\"kind\": \"noc-latency\", \"consumer_chip\": " +
                       std::to_string(chip) + "}"));
    }

    serve::ServerOptions options = daemon_options();
    options.machine_capacity = 1;
    std::vector<std::string> serial;
    {
      serve::Server server(options);
      for (const std::string& line : lines)
        serial.push_back(server.handle_line(line));
    }

    serve::Server server(options);
    std::vector<std::string> concurrent(lines.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < lines.size(); i += 4)
          concurrent[i] = server.handle_line(lines[i]);
      });
    for (auto& thread : threads) thread.join();
    for (std::size_t i = 0; i < lines.size(); ++i)
      EXPECT_EQ(concurrent[i], serial[i]) << lines[i].substr(0, 120);
  }
}

}  // namespace
}  // namespace p8
