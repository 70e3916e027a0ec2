// The two p8serve workloads: an in-process serve::Server on a Unix
// socket inside the output directory, driven by closed-loop client
// connections that each send their next request only after the previous
// answer arrived.
//
//  serve-analytic  Seeded analytic-servable queries (bandwidth roofs,
//                  random bandwidth, NoC latency, unit-stride streams,
//                  chases outside the guard band) for e870/e880/e850c;
//                  10% are 8-query batches and 5% carry an inline spec.
//                  Parse, machine resolve, route, render and transport do
//                  all the work; the cache and the simulator are bypassed.
//  serve-sim-mix   Three of every ten requests are the same analytic
//                  ones, seven are simulation-required (DSCR != 1 chases,
//                  guard-band chases and strided chases).
//                  These follow bench_serve's duplicate-heavy profile: it
//                  draws 160 simulation-required requests uniformly from a
//                  pool of 12 keys, so (160 - 12) / 160 = 0.925 of them
//                  hit the cache (that gate measures 0.926).  Here the
//                  pool slides along the stream: a fresh key is
//                  introduced every 160/12 simulation requests, and the
//                  others draw uniformly from the 12 keys before the 12
//                  newest, which are computed by then.  Twelve consecutive
//                  keys cover each of the four query kinds on each of the
//                  three machines once, so every stretch of the stream
//                  asks for the same simulation work.  The cache holds
//                  every key, so misses equal the distinct keys exactly.
//                  Hits take microseconds and a miss as long as the
//                  simulation.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "layers.hpp"
#include "predict/machine_predict.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/machine/spec.hpp"
#include "ubench/workloads.hpp"
#include "workloads.hpp"

namespace p8bench {

namespace {

using namespace p8;
using Kind = predict::Query::Kind;

constexpr const char* kMachineNames[] = {"e870", "e880", "e850c"};
constexpr std::size_t kAnalyticPool = 1024;
/// bench_serve's duplicate-heavy profile: 12 keys per 160
/// simulation-required requests.
constexpr std::uint64_t kPoolKeys = 12;
constexpr std::uint64_t kSimPerPool = 160;
/// Results the daemon keeps: far more keys than a window introduces (a
/// fresh key per 13 simulation requests, each miss milliseconds of
/// simulation), so nothing is evicted and misses equal distinct keys.
constexpr std::size_t kCacheCapacity = 1u << 20;
/// Requests the traced run replays through the serving stages.
constexpr std::size_t kStageSample = 4000;
/// Simulation-required keys recomputed after the window.
constexpr std::size_t kRecomputeSample = 32;
/// Client request spans kept per connection in a traced run (the
/// latency histograms still count every request).
constexpr std::size_t kClientSpans = 4096;

std::string num(std::uint64_t v) { return std::to_string(v); }

const char* pattern_name(ubench::ChasePattern p) {
  switch (p) {
    case ubench::ChasePattern::kRandom: return "random";
    case ubench::ChasePattern::kForwardStride: return "forward-stride";
    case ubench::ChasePattern::kBackwardStride: return "backward-stride";
  }
  return "random";
}

/// A query as a client would spell it: only the members its kind uses.
std::string wire_query(const predict::Query& q) {
  std::string s = "{\"kind\": \"" + serve::query_kind_name(q.kind) + "\"";
  const auto chips = [&] {
    s += ", \"consumer_chip\": " + num(static_cast<std::uint64_t>(q.consumer_chip)) +
         ", \"home_chip\": " + num(static_cast<std::uint64_t>(q.home_chip));
  };
  const auto resources = [&] {
    s += ", \"chips\": " + num(static_cast<std::uint64_t>(q.chips)) +
         ", \"cores\": " + num(static_cast<std::uint64_t>(q.cores)) +
         ", \"threads\": " + num(static_cast<std::uint64_t>(q.threads));
  };
  switch (q.kind) {
    case Kind::kChaseLatency:
      s += ", \"footprint_bytes\": " + num(q.footprint_bytes) +
           ", \"page_bytes\": " + num(q.page_bytes) +
           ", \"dscr\": " + num(static_cast<std::uint64_t>(q.dscr));
      if (q.pattern != ubench::ChasePattern::kRandom)
        s += std::string(", \"pattern\": \"") + pattern_name(q.pattern) +
             "\", \"stride_lines\": " + num(q.stride_lines);
      chips();
      break;
    case Kind::kStreamLatency:
      s += ", \"stride_lines\": " + num(q.stride_lines) +
           ", \"page_bytes\": " + num(q.page_bytes) +
           ", \"dscr\": " + num(static_cast<std::uint64_t>(q.dscr));
      chips();
      break;
    case Kind::kStreamBandwidth:
      resources();
      s += ", \"read\": " + common::json_number(q.mix.read) +
           ", \"write\": " + common::json_number(q.mix.write) +
           ", \"dscr\": " + num(static_cast<std::uint64_t>(q.dscr));
      break;
    case Kind::kRandomBandwidth:
      resources();
      s += ", \"streams\": " + num(static_cast<std::uint64_t>(q.streams));
      break;
    case Kind::kNocLatency:
      chips();
      break;
  }
  return s + "}";
}

/// One served machine: its spec in both spellings and a direct router
/// (no daemon, no cache) that provides the ground truth.
struct MachineCtx {
  std::string name;
  sim::MachineSpec spec;
  std::string canonical;    ///< spec.to_json(), the daemon's cache key half
  std::string inline_json;  ///< the same spec as one line
  std::unique_ptr<predict::QueryRouter> router;
};

struct PoolRequest {
  std::string line;
  std::size_t machine = 0;
  std::vector<predict::Query> queries;
  bool batch = false;
  bool analytic = true;
  std::uint64_t key = 0;  ///< simulation key index (sim requests)
};

std::string render_request(const MachineCtx& m, bool inline_spec,
                           const std::vector<predict::Query>& queries,
                           bool batch) {
  std::string s = "{\"verb\": \"query\", \"machine\": ";
  s += inline_spec ? m.inline_json : "\"" + m.name + "\"";
  if (!batch) return s + ", \"query\": " + wire_query(queries.front()) + "}";
  s += ", \"queries\": [";
  for (std::size_t i = 0; i < queries.size(); ++i)
    s += (i ? ", " : "") + wire_query(queries[i]);
  return s + "]}";
}

int below(common::Xoshiro256& rng, int n) {
  return static_cast<int>(rng.bounded(static_cast<std::uint64_t>(n)));
}

/// Seeded analytic-servable query for `m`.  `slot` in [0, 20) fixes the
/// kind — 7 chase, 3 stream-latency, 4 stream-bandwidth, 3 random-
/// bandwidth, 3 NoC — so every seed serves the same mix and the seed
/// only moves the parameters.
predict::Query analytic_query(common::Xoshiro256& rng, const MachineCtx& m,
                              std::size_t slot) {
  const arch::SystemSpec& s = m.spec.system;
  const int chips = s.total_chips();
  predict::Query q;
  q.consumer_chip = below(rng, chips);
  q.home_chip = below(rng, chips);
  const std::size_t k = slot % 20;
  if (k < 7) {
    q.kind = Kind::kChaseLatency;
    q.page_bytes = rng.bounded(2) ? common::mib(16) : common::kib(64);
    const predict::Predictor& p = m.router->predictor();
    const double hi = 4.0 * static_cast<double>(
                                p.level(p.level_count() - 2).capacity_bytes);
    const double lo = 16.0 * 1024.0;
    do {
      const double f = lo * std::pow(hi / lo, rng.uniform());
      q.footprint_bytes = static_cast<std::uint64_t>(f) / 128 * 128;
    } while (!m.router->analytic_servable(q));
  } else if (k < 10) {
    q.kind = Kind::kStreamLatency;
    q.dscr = 1 + below(rng, 7);
  } else if (k < 14) {
    static const sim::RwMix kMixes[] = {{1, 0}, {4, 1}, {2, 1}, {1, 1}, {0, 1}};
    q.kind = Kind::kStreamBandwidth;
    q.chips = 1 + below(rng, chips);
    q.cores = 1 + below(rng, s.cores_per_chip);
    q.threads = 1 + below(rng, s.processor.core.smt_threads);
    q.mix = kMixes[below(rng, 5)];
    q.dscr = below(rng, 8);
  } else if (k < 17) {
    q.kind = Kind::kRandomBandwidth;
    q.chips = 1 + below(rng, chips);
    q.cores = 1 + below(rng, s.cores_per_chip);
    q.threads = 1 + below(rng, s.processor.core.smt_threads);
    q.streams = 1 + below(rng, 16);
  } else {
    q.kind = Kind::kNocLatency;
  }
  return q;
}

/// Seeded simulation-required query for `m`.  `kind` in [0, 4) fixes the
/// kind: a DSCR != 1 chase, a chase inside the guard band around the
/// core's L2 capacity, and forward and backward strided chases.  The
/// footprints sit near 512 KB, so a miss costs 3-13 ms of host time and
/// a window holds thousands of them; strided streams (200 K accesses,
/// about 90 ms) and L3-sized chases (up to 160 ms) would leave a few
/// hundred.  The seed draws chips, page size, DSCR, stride and a
/// footprint offset under 1/16, none of which moves a simulation's host
/// cost by much, so every seed's keys cost about the same.
predict::Query sim_query(common::Xoshiro256& rng, const MachineCtx& m,
                         std::uint64_t kind) {
  const int chips = m.spec.system.total_chips();
  predict::Query q;
  q.kind = Kind::kChaseLatency;
  q.consumer_chip = below(rng, chips);
  q.home_chip = below(rng, chips);
  q.page_bytes = rng.bounded(2) ? common::mib(16) : common::kib(64);
  const auto near = [&](std::uint64_t bytes) {
    return bytes / 128 * 128 + 128 * rng.bounded(bytes / 16 / 128);
  };
  switch (kind) {
    case 0:
      q.dscr = 2 + below(rng, 6);
      q.footprint_bytes = near(common::kib(512));
      return q;
    case 1:
      q.footprint_bytes = near(m.spec.system.processor.core.l2_bytes);
      return q;
    default:
      q.pattern = kind == 2 ? ubench::ChasePattern::kForwardStride
                            : ubench::ChasePattern::kBackwardStride;
      q.stride_lines = 1 + rng.bounded(64);
      q.dscr = 1 + below(rng, 7);
      q.footprint_bytes = near(common::kib(512));
      return q;
  }
}

/// Everything set-up builds: machines, the analytic request pool, the
/// daemon and the connected clients.  Simulation keys are built on first
/// use, in index order, so a window never runs out of them.
struct ServeState {
  std::uint64_t seed = 0;
  bool sim_mix = false;
  std::vector<MachineCtx> machines;
  std::vector<PoolRequest> analytic;
  std::string socket_path;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;

  ServeState(const Options& options, bool mixed)
      : seed(options.seed), sim_mix(mixed) {
    for (const char* name : kMachineNames) {
      MachineCtx m;
      m.name = name;
      m.spec = sim::machine_spec(name);
      m.canonical = m.spec.to_json();
      m.inline_json = common::json_dump(common::Json::parse(m.canonical));
      m.router = std::make_unique<predict::QueryRouter>(m.spec, 1);
      machines.push_back(std::move(m));
    }
    common::Xoshiro256 rng(mix(options.seed, 0xa11a, sim_mix));
    // The request mix is fixed by position (machine, batch, inline spec,
    // query kind), so every seed serves the same proportions; the seed
    // draws the parameters.
    for (std::size_t i = 0; i < kAnalyticPool; ++i) {
      PoolRequest r;
      r.machine = i % 3;
      r.batch = i % 10 == 9;
      for (std::size_t k = 0; k < (r.batch ? 8 : 1); ++k)
        r.queries.push_back(analytic_query(rng, machines[r.machine], i / 3 + 7 * k));
      r.line = render_request(machines[r.machine], i % 20 == 7, r.queries, r.batch);
      analytic.push_back(std::move(r));
    }

    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    // A relative path keeps the socket name under the AF_UNIX length
    // limit wherever the checkout lives.
    socket_path =
        std::filesystem::relative(options.out_dir, ".", ec).generic_string();
    if (ec || socket_path.empty()) socket_path = options.out_dir;
    socket_path += "/p8bench-" + std::to_string(::getpid()) + ".sock";
    serve::ServerOptions so;
    so.socket_path = socket_path;
    so.cache_capacity = kCacheCapacity;
    so.sim_threads = std::min<std::size_t>(2, options.threads);
    server = std::make_unique<serve::Server>(so);
    server->start();
    for (std::size_t c = 0; c < options.threads; ++c)
      clients.push_back(std::make_unique<serve::Client>(socket_path));
  }

  ~ServeState() {
    clients.clear();
    if (server) server->stop();
  }
  ServeState(const ServeState&) = delete;
  ServeState& operator=(const ServeState&) = delete;

  /// Simulation key `n`: a distinct, valid, simulation-required query of
  /// kind n % 4 on machine (n / 4) % 3, drawn from the seed.  Keys are
  /// built in index order under a lock, so key n depends only on the
  /// seed and n; the deque keeps every reference handed out valid.
  const PoolRequest& key(std::uint64_t n) {
    const std::lock_guard<std::mutex> lock(keys_mutex_);
    while (keys_.size() <= n) {
      const std::uint64_t k = keys_.size();
      PoolRequest r;
      r.machine = static_cast<std::size_t>(k / 4 % 3);
      const MachineCtx& m = machines[r.machine];
      common::Xoshiro256 rng(mix(seed, 0x6b6579, k));
      predict::Query q;
      do {
        q = sim_query(rng, m, k % 4);
      } while (m.router->analytic_servable(q) ||
               !serve::validate_query(q, m.spec).empty() ||
               !keys_seen_.insert(m.name + serve::query_canonical_json(q)).second);
      r.queries.push_back(q);
      r.analytic = false;
      r.key = k;
      r.line = render_request(m, k % 20 == 19, r.queries, false);
      keys_.push_back(std::move(r));
    }
    return keys_[n];
  }

  /// Request `i` of the workload's stream: a pure function of the seed
  /// and `i`, so a run's requests are a prefix of one fixed sequence.
  const PoolRequest& request(std::uint64_t i) {
    const std::uint64_t h = mix(seed, 0x5e4e, i);
    if (!sim_mix || i % 10 < 3) return analytic[h % analytic.size()];
    // j-th simulation request; after it, `keys` keys have been introduced.
    const std::uint64_t j = i / 10 * 7 + (i % 10 - 3);
    const std::uint64_t keys = j * kPoolKeys / kSimPerPool + 1;
    const bool fresh = j == 0 || (j - 1) * kPoolKeys / kSimPerPool + 1 < keys;
    if (fresh) return key(keys - 1);
    // Repeats draw from the 12 keys introduced before the 12 newest, so a
    // repeat comes at least 160 simulation requests after its key's miss
    // and finds it computed.  A repeat of a key still in flight would wait
    // for it, and how many do depends on timing: a slower host would then
    // push more requests into the tail.
    const std::uint64_t aged = keys > kPoolKeys ? keys - kPoolKeys : 1;
    return key(aged - 1 - h % std::min(aged, kPoolKeys));
  }

 private:
  std::mutex keys_mutex_;
  std::deque<PoolRequest> keys_;
  std::set<std::string> keys_seen_;
};

/// What one connection saw during the window.
struct ClientLog {
  LatencyHistogram latency;
  std::size_t spans = 0;
  std::vector<std::uint64_t> per_second;  ///< completions per window second
  /// Simulation-required requests: (stream index, response line).
  std::vector<std::pair<std::uint64_t, std::string>> sim;
  std::uint64_t sent = 0;
  std::uint64_t analytic_requests = 0;
  std::uint64_t analytic_queries = 0;
  std::uint64_t analytic_bad = 0;
  std::vector<std::string> bad_examples;
};

/// Each analytic pool entry's expected response line, rendered from the
/// direct router's answers exactly as the daemon renders its own.
std::vector<std::string> expected_responses(ServeState& state) {
  std::vector<std::string> out;
  for (const PoolRequest& r : state.analytic) {
    std::vector<serve::AnswerWire> wires;
    for (const predict::Query& q : r.queries)
      wires.push_back({state.machines[r.machine].router->answer(q).value, true, false});
    std::string line = serve::query_response(std::nullopt, wires, r.batch);
    line.pop_back();  // the client strips the LF
    out.push_back(std::move(line));
  }
  return out;
}

/// `response` with the low bit of its value flipped.
std::string perturbed(const std::string& response) {
  double v = common::Json::parse(response).find("value")->number;
  flip_low_bit(v);
  std::string line = serve::query_response(std::nullopt, {{v, true, false}}, false);
  line.pop_back();
  return line;
}

/// The closed-loop window: each connection takes the next stream index,
/// sends it and waits for the answer, until the window closes.  Analytic
/// answers are compared with their expected bytes as they arrive, so
/// the window keeps no per-request strings for them.  A traced run
/// records a client span per request (after its end is stamped, so the
/// latency excludes it), up to kClientSpans per connection.
std::vector<ClientLog> run_window(ServeState& state, const Options& options,
                                  SpanRecorder* spans,
                                  const std::vector<std::string>& expected,
                                  double& window_s) {
  std::atomic<std::uint64_t> cursor{0};
  std::vector<ClientLog> logs(state.clients.size());
  const common::Timer window;
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < state.clients.size(); ++c)
      threads.emplace_back([&, c] {
        serve::Client& client = *state.clients[c];
        ClientLog& log = logs[c];
        bool perturb = options.perturb && c == 0;
        while (window.seconds() < options.seconds) {
          const std::uint64_t i = cursor.fetch_add(1);
          const PoolRequest& r = state.request(i);
          const double start = window.seconds();
          std::string response;
          bool broken = false;
          try {
            response = client.request(r.line);
          } catch (const std::exception& e) {
            response = std::string("<transport error: ") + e.what() + ">";
            broken = true;
          }
          const double end = window.seconds();
          log.latency.add(end - start);
          const std::size_t second = static_cast<std::size_t>(end);
          if (log.per_second.size() <= second) log.per_second.resize(second + 1, 0);
          ++log.per_second[second];
          if (spans != nullptr && log.spans++ < kClientSpans)
            spans->record("serve.client.request", start, end, SpanRecorder::kRoot, i);
          ++log.sent;
          if (r.analytic) {
            ++log.analytic_requests;
            log.analytic_queries += r.queries.size();
            if (perturb && !r.batch && !broken) {
              response = perturbed(response);
              perturb = false;
            }
            const std::size_t slot =
                static_cast<std::size_t>(&r - state.analytic.data());
            if (response != expected[slot]) {
              ++log.analytic_bad;
              if (log.bad_examples.size() < 4)
                log.bad_examples.push_back("request " + std::to_string(i) + ": got " +
                                           response.substr(0, 160) + ", direct router " +
                                           expected[slot].substr(0, 160));
            }
          } else {
            log.sim.emplace_back(i, std::move(response));
          }
          if (broken) break;
        }
      });
    for (std::thread& t : threads) t.join();
  }
  window_s = window.seconds();
  return logs;
}

std::uint64_t counter_of(const std::map<std::string, std::uint64_t>& stats,
                         const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0 : it->second;
}

/// The daemon's counters through the `stats` verb.
std::map<std::string, std::uint64_t> fetch_stats(ServeState& state) {
  std::map<std::string, std::uint64_t> out;
  const common::Json doc =
      common::Json::parse(state.clients.front()->request("{\"verb\": \"stats\"}"));
  if (const common::Json* s = doc.find("stats"))
    for (const auto& [name, value] : s->object)
      out[name] = static_cast<std::uint64_t>(value.number);
  return out;
}

std::string text(double v) { return common::json_number(v); }

/// The value of an ok single-query response, rendered back to text.
std::optional<std::string> response_value(const std::string& response) {
  try {
    const common::Json doc = common::Json::parse(response);
    const common::Json* ok = doc.find("ok");
    const common::Json* v = doc.find("value");
    if (ok == nullptr || !ok->is_bool() || !ok->boolean || v == nullptr)
      return std::nullopt;
    return text(v->number);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// What the oracles learned, for the layer report.
struct Checked {
  std::map<std::uint64_t, std::string> first_answer;  ///< key -> first value
  std::vector<std::uint64_t> recomputed;              ///< sampled keys
  double simulate_s = 0.0;
};

Checked check_outputs(Outcome& out, ServeState& state, const Options& options,
                      std::vector<ClientLog>& logs,
                      const std::map<std::string, std::uint64_t>& stats,
                      SpanRecorder* spans) {
  Checked c;
  // Analytic answers were checked against the direct router as they
  // arrived, every one of them.
  std::uint64_t analytic_queries = 0, sent = 0;
  std::vector<std::pair<std::uint64_t, std::string>> sim;
  for (ClientLog& log : logs) {
    sent += log.sent;
    analytic_queries += log.analytic_queries;
    out.tally.attempted += log.analytic_requests;
    out.tally.failed += log.analytic_bad;
    for (const std::string& e : log.bad_examples)
      out.tally.failures.push_back("analytic answer differs: " + e);
    for (auto& s : log.sim) sim.push_back(std::move(s));
  }
  // Simulated: in stream order, every repeat of a key must be
  // byte-identical to its first answer.
  std::sort(sim.begin(), sim.end());
  for (const auto& [i, response] : sim) {
    const PoolRequest& r = state.request(i);
    const std::optional<std::string> v = response_value(response);
    const std::string where = "request " + std::to_string(i);
    if (!v) {
      out.tally.check(false, where + ": bad response " + response.substr(0, 200));
      continue;
    }
    const auto [it, first] = c.first_answer.emplace(r.key, *v);
    out.tally.check(first || it->second == *v,
                    where + ": key " + std::to_string(r.key) + " answered " + *v +
                        ", first " + it->second);
  }

  // A seeded sample of simulated keys, recomputed after the window.
  std::vector<std::uint64_t> seen;
  for (const auto& [key, value] : c.first_answer) seen.push_back(key);
  common::Xoshiro256 rng(mix(options.seed, 0x7ec0, 0));
  for (std::size_t k = 0; k < kRecomputeSample && !seen.empty(); ++k) {
    const std::size_t pick = static_cast<std::size_t>(rng.bounded(seen.size()));
    c.recomputed.push_back(seen[pick]);
    seen.erase(seen.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  for (const std::uint64_t key : c.recomputed) {
    const PoolRequest& r = state.key(key);
    const ScopedSpan span(spans, "serve.simulate", SpanRecorder::kRoot, key);
    const common::Timer t;
    const double v = state.machines[r.machine].router->answer(r.queries.front()).value;
    c.simulate_s += t.seconds();
    out.tally.check(text(v) == c.first_answer[key],
                    "key " + std::to_string(key) + " recomputed to " + text(v) +
                        ", served " + c.first_answer[key]);
  }

  // The daemon's own accounting: single-flight makes misses equal the
  // distinct keys and hits the repeats, exactly, while nothing is
  // evicted.
  const std::uint64_t distinct = c.first_answer.size();
  const std::uint64_t repeats = sim.size() - distinct;
  out.tally.check(counter_of(stats, "serve.errors") == 0,
                  "daemon counted " + std::to_string(counter_of(stats, "serve.errors")) +
                      " errors");
  out.tally.check(counter_of(stats, "serve.cache_evictions") == 0,
                  "daemon evicted " +
                      std::to_string(counter_of(stats, "serve.cache_evictions")) +
                      " results");
  out.tally.check(counter_of(stats, "serve.cache_misses") == distinct &&
                      counter_of(stats, "serve.sim") == distinct,
                  "cache misses " + std::to_string(counter_of(stats, "serve.cache_misses")) +
                      " != distinct keys " + std::to_string(distinct));
  out.tally.check(counter_of(stats, "serve.cache_hits") == repeats,
                  "cache hits " + std::to_string(counter_of(stats, "serve.cache_hits")) +
                      " != repeats " + std::to_string(repeats));
  out.tally.check(counter_of(stats, "serve.analytic") == analytic_queries,
                  "analytic count " + std::to_string(counter_of(stats, "serve.analytic")) +
                      " != " + std::to_string(analytic_queries));
  out.fact("requests", std::to_string(sent));
  out.fact("sim_requests", std::to_string(sim.size()));
  out.fact("distinct_sim_keys", std::to_string(distinct));
  return c;
}

// ---- per-layer report -----------------------------------------------------

/// Replays a seeded sample of the window's own request lines through
/// the daemon's public stages in handle_query's order, then through
/// Server::handle_line.  Pass 0 warms up; pass 1 runs bare and pass 2
/// records one span per stage and per handle call, so their times give
/// the tracing overhead.
void stage_replay(Outcome& out, ServeState& state, const Options& options,
                  std::uint64_t sent, const Checked& checked,
                  SpanRecorder* spans, const LatencyHistogram& window_latency) {
  // The window sent exactly the stream's first `sent` requests.
  common::Xoshiro256 rng(mix(options.seed, 0x57a9e, 0));
  std::vector<const PoolRequest*> sample;
  for (std::size_t k = 0; k < kStageSample && sent > 0; ++k)
    sample.push_back(&state.request(rng.bounded(sent)));

  // The daemon's cache already holds every key the window sent; this
  // stand-alone cache is primed with the served values so the replay
  // times the hit path.
  serve::ResultCache cache(kCacheCapacity);
  std::map<std::string, const MachineCtx*> by_canonical;
  for (const MachineCtx& m : state.machines) by_canonical[m.canonical] = &m;

  std::vector<double> handle_s;
  double pass_s[3] = {0.0, 0.0, 0.0};
  for (int pass = 0; pass < 3; ++pass) {
    SpanRecorder* s = pass == 2 ? spans : nullptr;
    const common::Timer pass_timer;
    for (std::size_t k = 0; k < sample.size(); ++k) {
      const std::string& line = sample[k]->line;
      const ScopedSpan request(s, "serve.stages", SpanRecorder::kRoot, k);
      const auto stage = [&](const char* name, auto&& body) {
        const ScopedSpan span(s, name, request.id(), k);
        body();
      };
      serve::Request r;
      stage("serve.parse", [&] { r = serve::parse_request(line); });
      sim::MachineSpec spec;
      std::string canonical;
      stage("serve.resolve", [&] {
        spec = r.machine_name.empty()
                   ? sim::MachineSpec::from_json(r.machine_inline_json)
                   : sim::machine_spec(r.machine_name);
        out.tally.check(spec.audit().ok(), "replayed machine fails its audit");
        canonical = spec.to_json();
      });
      stage("serve.validate", [&] {
        for (const predict::Query& q : r.queries)
          out.tally.check(serve::validate_query(q, spec).empty(),
                          "replayed query fails validation");
      });
      std::vector<serve::AnswerWire> wires(r.queries.size());
      std::vector<std::size_t> sim_idx;
      const MachineCtx* m = nullptr;
      stage("serve.route", [&] {
        const auto it = by_canonical.find(canonical);
        m = it == by_canonical.end() ? nullptr : it->second;
        if (m == nullptr) return;
        for (std::size_t i = 0; i < r.queries.size(); ++i) {
          if (m->router->analytic_servable(r.queries[i]))
            wires[i] = {m->router->answer(r.queries[i]).value, true, false};
          else
            sim_idx.push_back(i);
        }
      });
      out.tally.check(m != nullptr, "replayed request resolved to no machine");
      if (!sim_idx.empty()) {
        const auto served = checked.first_answer.find(sample[k]->key);
        const double value = served == checked.first_answer.end()
                                 ? 0.0
                                 : common::Json::parse(served->second).number;
        stage("serve.cache_hit", [&] {
          for (const std::size_t i : sim_idx) {
            const serve::ResultCache::Outcome o = cache.get_or_compute(
                canonical, serve::query_canonical_json(r.queries[i]),
                [value] { return value; });
            wires[i] = {o.value, false, o.cached};
          }
        });
      }
      std::string response;
      stage("serve.render",
            [&] { response = serve::query_response(r.id, wires, r.batch); });
      const ScopedSpan handle(s, "serve.handle", SpanRecorder::kRoot, k);
      const common::Timer t;
      const std::string served = state.server->handle_line(line);
      if (pass == 1) handle_s.push_back(t.seconds());
      out.tally.check(served.find("\"ok\": true") != std::string::npos,
                      "handle_line failed on a replayed request: " +
                          served.substr(0, 200));
    }
    pass_s[pass] = pass_timer.seconds();
  }

  const auto layer = layer_totals(spans->spans());
  const auto total = [&](const char* name) {
    const auto it = layer.find(name);
    return it == layer.end() ? 0.0 : it->second.total_s;
  };
  const auto count = [&](const char* name) {
    const auto it = layer.find(name);
    return it == layer.end() ? std::size_t{0} : it->second.count;
  };
  const auto mean_us = [&](const char* name) {
    return count(name) ? total(name) * 1e6 / static_cast<double>(count(name)) : 0.0;
  };
  const double n = static_cast<double>(sample.size());
  const std::size_t ns = sample.size();
  // Stage rows are per request (a batch pays each stage once).
  set_layer(out, "serve.parse_us", total("serve.parse") * 1e6 / n, ns);
  set_layer(out, "serve.resolve_us", total("serve.resolve") * 1e6 / n, ns);
  set_layer(out, "serve.validate_us", total("serve.validate") * 1e6 / n, ns);
  set_layer(out, "serve.route_us", total("serve.route") * 1e6 / n, ns);
  set_layer(out, "serve.cache_hit_us", mean_us("serve.cache_hit"), count("serve.cache_hit"));
  set_layer(out, "serve.render_us", total("serve.render") * 1e6 / n, ns);
  set_layer(out, "serve.handle_us", mean_us("serve.handle"), count("serve.handle"));
  const double stages = total("serve.parse") + total("serve.resolve") +
                        total("serve.validate") + total("serve.route") +
                        total("serve.cache_hit") + total("serve.render");
  const double coverage = total("serve.handle") > 0.0 ? stages / total("serve.handle") : 0.0;
  set_layer(out, "serve.stage_coverage", coverage, ns);
  out.tally.check(coverage >= 0.9,
                  "serve stages explain only " + std::to_string(coverage) +
                      " of handle_line time (need >= 0.9)");
  set_layer(out, "serve.transport_us",
            (window_latency.quantile(0.5) - quantile_or_zero(handle_s, 0.5)) * 1e6,
            window_latency.count());
  set_layer(out, "trace.overhead_ratio",
            pass_s[1] > 0.0 ? pass_s[2] / pass_s[1] - 1.0 : 0.0, ns);

  // The analytic tier alone, on the sample's analytic queries.
  std::vector<std::pair<predict::QueryRouter*, const predict::Query*>> analytic;
  for (const PoolRequest* r : sample)
    if (r->analytic)
      for (const predict::Query& q : r->queries)
        analytic.emplace_back(state.machines[r->machine].router.get(), &q);
  if (!analytic.empty()) {
    constexpr int kReps = 50;
    double sum = 0.0;
    const common::Timer t;
    {
      const ScopedSpan span(spans, "predict.router.answer", SpanRecorder::kRoot, 0);
      for (int rep = 0; rep < kReps; ++rep)
        for (const auto& [router, q] : analytic) sum += router->answer(*q).value;
    }
    const double calls = static_cast<double>(kReps) * static_cast<double>(analytic.size());
    set_layer(out, "predict.analytic.ns_per_query",
              std::isfinite(sum) ? t.seconds() * 1e9 / calls : 0.0,
              static_cast<std::size_t>(calls));
  }
}

/// Isolated-layer replay of a few simulated keys (all chases), mirroring
/// the stream QueryRouter's fallback replays.
void sim_layers(Outcome& out, ServeState& state, const Checked& checked,
                SpanRecorder* spans) {
  LayerTotals totals;
  sim::CounterRegistry counters;
  const std::size_t n = std::min<std::size_t>(6, checked.recomputed.size());
  for (std::size_t k = 0; k < n; ++k) {
    const PoolRequest& r = state.key(checked.recomputed[k]);
    const predict::Query& q = r.queries.front();
    const sim::Machine& machine = state.machines[r.machine].router->machine();
    const std::uint64_t line = machine.spec().processor.cache_line_bytes;
    const ScopedSpan span(spans, "layers.point", SpanRecorder::kRoot, r.key);
    CapturedStream stream;
    CaptureSink sink(stream);
    ubench::ChaseOptions o;
    o.working_set_bytes = q.footprint_bytes;
    o.page_bytes = q.page_bytes;
    o.dscr = q.dscr;
    o.pattern = q.pattern;
    o.stride_lines = q.stride_lines;
    o.consumer_chip = q.consumer_chip;
    o.home_chip = q.home_chip;
    ubench::emit_chase_trace(line, o, sink);
    sim::ProbeOptions po;
    po.page_bytes = q.page_bytes;
    po.dscr = q.dscr;
    po.consumer_chip = q.consumer_chip;
    po.home_chip = q.home_chip;
    totals.add(replay_layers(machine, po, stream, spans, span.id(), r.key, &counters));
  }
  if (totals.samples > 0) add_sim_layer_metrics(out, totals, counters);
}

Outcome run_serve(const Options& options, SpanRecorder* spans, bool sim_mix) {
  Outcome out;
  std::vector<double> setup_s;
  const std::unique_ptr<ServeState> state = set_up(
      [&] { return std::make_unique<ServeState>(options, sim_mix); }, setup_s);

  // The oracle's expected bytes are prepared outside the timed set-up.
  const std::vector<std::string> expected = expected_responses(*state);
  double window_s = 0.0;
  std::vector<ClientLog> logs = run_window(*state, options, spans, expected, window_s);
  LatencyHistogram latency;
  std::uint64_t sent = 0;
  // Requests per second of each whole second of the window.
  const std::size_t seconds = static_cast<std::size_t>(options.seconds);
  std::vector<double> rates(seconds, 0.0);
  for (const ClientLog& log : logs) {
    latency.merge(log.latency);
    sent += log.sent;
    for (std::size_t k = 0; k < seconds && k < log.per_second.size(); ++k)
      rates[k] += static_cast<double>(log.per_second[k]);
  }
  if (rates.empty()) rates.push_back(static_cast<double>(sent) / window_s);
  std::string per_second;
  for (const double r : rates) per_second += (per_second.empty() ? "" : ",") + text(r);
  out.fact("requests_per_second", per_second);
  const std::map<std::string, std::uint64_t> stats = fetch_stats(*state);
  const Checked checked = check_outputs(out, *state, options, logs, stats, spans);
  const double hits = static_cast<double>(counter_of(stats, "serve.cache_hits"));
  const double misses = static_cast<double>(counter_of(stats, "serve.cache_misses"));
  const double hit_ratio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  out.fact("cache_hit_ratio", text(hit_ratio));
  out.fact("cache_misses_per_s", text(misses / window_s));
  add_end_to_end(out, setup_s, rates, latency.quantile(0.5), latency.quantile(0.99),
                 latency.count());

  if (spans != nullptr) {
    const std::size_t requests = static_cast<std::size_t>(sent);
    set_layer(out, "serve.cache_hit_ratio", hit_ratio, requests);
    set_layer(out, "serve.cache_misses", misses, requests);
    set_layer(out, "serve.sim", static_cast<double>(counter_of(stats, "serve.sim")), requests);
    set_layer(out, "serve.analytic", static_cast<double>(counter_of(stats, "serve.analytic")),
              requests);
    const double queries = static_cast<double>(counter_of(stats, "serve.queries"));
    set_layer(out, "predict.analytic_share",
              queries > 0.0 ? static_cast<double>(counter_of(stats, "serve.analytic")) / queries
                            : 0.0,
              requests);
    if (!checked.recomputed.empty())
      set_layer(out, "serve.simulate_ms",
                checked.simulate_s * 1e3 / static_cast<double>(checked.recomputed.size()),
                checked.recomputed.size());
    stage_replay(out, *state, options, sent, checked, spans, latency);
    sim_layers(out, *state, checked, spans);
  }
  return out;
}

}  // namespace

Outcome run_serve_analytic(const Options& options, SpanRecorder* spans) {
  return run_serve(options, spans, /*sim_mix=*/false);
}

Outcome run_serve_sim_mix(const Options& options, SpanRecorder* spans) {
  return run_serve(options, spans, /*sim_mix=*/true);
}

}  // namespace p8bench
