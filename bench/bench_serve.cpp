// Serving gate for the p8serve daemon: a deterministic load generator
// that drives a real daemon over its Unix-domain socket and pins the
// end-to-end contracts behind BENCH_serve.json (docs/SERVE.md):
//
//  * identity — every answer the daemon returns, fresh or memoized,
//    is byte-identical (json_number formatting) to running the same
//    query through a direct QueryRouter;
//  * hit-rate — on the duplicate-heavy profile (a seeded stream
//    drawing simulation-required queries from a small pool, sharded
//    across concurrent clients) the content-addressed cache serves
//    >= 90% of simulation-required requests from memory, and
//    `serve.cache_hits` equals the stream's duplicate count exactly
//    (single-flight dedup makes that deterministic at any client
//    count);
//  * accounting — serve.queries == serve.analytic + serve.sim +
//    serve.cache_hits on every profile;
//  * eviction — the eviction-churn profile (cache capacity 4, a
//    single client round-robining 6 distinct queries) thrashes strict
//    LRU: zero hits and an exactly predicted eviction count.
//
// The JSON artifact holds only deterministic values — request/hit/
// eviction counts, identity verdicts and an FNV-1a digest of every
// (canonical query, answer) pair — so tier1.sh byte-diffs it against
// the checked-in BENCH_serve.json.  Wall-clock throughput is printed
// but never written.  The `serve.latency.*` histogram is wall-clock
// and therefore excluded from the artifact.
//
// --perturb X arms the daemon's debug_value_skew seam: cached values
// are stored skewed by X, so cache hits are no longer byte-identical
// to fresh runs and the identity gate must fail — the WILL_FAIL ctest
// twin proves the gate has teeth.
//
// Exit: 0 all gates pass, 1 a gate failure, 2 bad configuration.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "predict/machine_predict.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace p8;

std::string bench_socket_path() {
  static int next = 0;
  return "/tmp/p8serve-bench-" + std::to_string(::getpid()) + "-" +
         std::to_string(next++) + ".sock";
}

/// xorshift64* — the same deterministic stream proptest uses, so the
/// generated load is a pure function of the seed.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dull;
}

std::string chase_request(const std::string& machine,
                          std::uint64_t footprint_bytes) {
  return "{\"verb\": \"query\", \"machine\": \"" + machine +
         "\", \"query\": {\"kind\": \"chase-latency\", "
         "\"footprint_bytes\": " +
         std::to_string(footprint_bytes) + ", \"dscr\": 2}}";
}

std::string noc_request(const std::string& machine, int home_chip) {
  return "{\"verb\": \"query\", \"machine\": \"" + machine +
         "\", \"query\": {\"kind\": \"noc-latency\", \"home_chip\": " +
         std::to_string(home_chip) + "}}";
}

predict::Query chase_query(std::uint64_t footprint_bytes) {
  predict::Query q;
  q.kind = predict::Query::Kind::kChaseLatency;
  q.footprint_bytes = footprint_bytes;
  q.dscr = 2;
  return q;
}

predict::Query noc_query(int home_chip) {
  predict::Query q;
  q.kind = predict::Query::Kind::kNocLatency;
  q.home_chip = home_chip;
  return q;
}

/// The outcome of replaying one profile against a fresh daemon.
struct ProfileRun {
  std::string profile;
  std::size_t requests = 0;
  std::size_t sim_requests = 0;    ///< simulation-required occurrences
  std::size_t sim_unique = 0;      ///< distinct simulation-required
  std::uint64_t cache_hits = 0;    ///< daemon's own accounting
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t analytic = 0;
  double hit_rate = 0.0;           ///< hits / sim_requests
  bool identity = true;            ///< every answer == direct, bytewise
  std::string value_digest;        ///< FNV-1a over (query, answer) pairs
  double seconds = 0.0;            ///< wall clock (printed, not written)
};

/// One (request line -> expected canonical answer bytes) ground-truth
/// table, computed through a direct QueryRouter — no daemon, no cache.
using Truth = std::map<std::string, std::string>;

/// Replays `lines` against a fresh daemon and checks every response
/// against `truth`.  `clients` connections shard the stream
/// round-robin; each thread keeps its own Client (the protocol is
/// synchronous per connection).
ProfileRun run_profile(const std::string& profile,
                       const std::vector<std::string>& lines,
                       const Truth& truth, std::size_t sim_requests,
                       std::size_t sim_unique, int clients,
                       serve::ServerOptions options) {
  ProfileRun run;
  run.profile = profile;
  run.requests = lines.size();
  run.sim_requests = sim_requests;
  run.sim_unique = sim_unique;

  options.socket_path = bench_socket_path();
  serve::Server server(options);
  server.start();
  if (!serve::wait_for_server(options.socket_path, 5.0)) {
    std::fprintf(stderr, "error: daemon at %s never came up\n",
                 options.socket_path.c_str());
    server.stop();
    run.identity = false;
    return run;
  }

  std::vector<std::vector<std::pair<std::string, std::string>>> answers(
      static_cast<std::size_t>(clients));
  common::Timer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      serve::Client client(options.socket_path);
      for (std::size_t i = static_cast<std::size_t>(c); i < lines.size();
           i += static_cast<std::size_t>(clients)) {
        const std::string response = client.request(lines[i]);
        const common::Json doc = common::Json::parse(response);
        const common::Json* value = doc.find("value");
        answers[static_cast<std::size_t>(c)].emplace_back(
            lines[i],
            value != nullptr ? common::json_number(value->number)
                             : std::string("<error: ") + response + ">");
      }
    });
  for (auto& t : threads) t.join();
  run.seconds = timer.seconds();

  const auto counters = server.counters_snapshot();
  server.stop();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : counters)
      if (key == name) return value;
    return 0;
  };
  run.cache_hits = counter("serve.cache_hits");
  run.cache_misses = counter("serve.cache_misses");
  run.cache_evictions = counter("serve.cache_evictions");
  run.analytic = counter("serve.analytic");
  run.hit_rate = sim_requests > 0
                     ? static_cast<double>(run.cache_hits) /
                           static_cast<double>(sim_requests)
                     : 0.0;

  // Identity: every answer, from every client, against the direct
  // ground truth — cached and fresh responses must be the same bytes.
  std::map<std::string, std::string> seen;
  for (const auto& shard : answers)
    for (const auto& [line, value] : shard) {
      const auto expect = truth.find(line);
      if (expect == truth.end() || value != expect->second) {
        if (run.identity)
          std::fprintf(stderr,
                       "identity break [%s]: %s answered %s, direct %s\n",
                       profile.c_str(), line.c_str(), value.c_str(),
                       expect == truth.end() ? "<missing>"
                                             : expect->second.c_str());
        run.identity = false;
      }
      seen.emplace(line, value);
    }

  // Content digest of the answered (query, value) pairs, sorted by
  // request line so the digest is independent of client scheduling.
  std::string corpus;
  for (const auto& [line, value] : seen)
    corpus += line + "=" + value + "\n";
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(serve::fnv1a64(corpus)));
  run.value_digest = hex;
  return run;
}

struct MachineServe {
  std::string selector;
  std::vector<ProfileRun> profiles;
  std::vector<bench::Verdict> verdicts;
};

MachineServe run_machine(const std::string& selector,
                         const sim::MachineSpec& spec, std::size_t requests,
                         int clients, std::size_t threads, double perturb) {
  MachineServe m;
  m.selector = selector;

  // Ground truth through a direct router — the same two-tier stack,
  // no daemon, no cache.
  common::ThreadPool pool(bench::pool_threads(threads));
  predict::QueryRouter router(spec, pool);

  // ---- duplicate-heavy profile -----------------------------------------
  // A seeded stream drawing simulation-required chases from a
  // 12-footprint pool (so ~ (1 - 12/N) of them are duplicates) with a
  // sprinkle of always-analytic NoC queries.
  const std::vector<std::uint64_t> pool_kb = {64,  80,  96,  112, 128, 160,
                                              192, 224, 256, 320, 384, 448};
  const int noc_chips = std::min(spec.system.total_chips(), 4);
  std::vector<std::string> heavy;
  std::set<std::string> heavy_unique;
  std::size_t heavy_sim = 0;
  std::uint64_t rand_state = 0x5e12e5e12e5e12e5ull;
  for (std::size_t i = 0; i < requests; ++i) {
    if (next_rand(rand_state) % 5 == 0) {
      heavy.push_back(noc_request(
          selector,
          static_cast<int>(next_rand(rand_state) %
                           static_cast<std::uint64_t>(noc_chips))));
    } else {
      const std::uint64_t kb =
          pool_kb[next_rand(rand_state) % pool_kb.size()];
      heavy.push_back(chase_request(selector, kb * 1024));
      ++heavy_sim;
      heavy_unique.insert(heavy.back());
    }
  }

  // ---- eviction-churn profile ------------------------------------------
  // 6 distinct simulation-required queries round-robin 3 times through
  // a 4-entry cache: strict LRU never hits, and evicts exactly
  // rounds*unique - capacity completed entries.
  const std::vector<std::uint64_t> churn_kb = {512, 576, 640, 704, 768, 832};
  constexpr std::size_t kChurnCapacity = 4;
  constexpr std::size_t kChurnRounds = 3;
  std::vector<std::string> churn;
  for (std::size_t round = 0; round < kChurnRounds; ++round)
    for (const std::uint64_t kb : churn_kb)
      churn.push_back(chase_request(selector, kb * 1024));

  // Direct answers for every distinct request in either stream.
  Truth truth;
  for (const std::uint64_t kb : pool_kb)
    truth[chase_request(selector, kb * 1024)] =
        common::json_number(router.answer(chase_query(kb * 1024)).value);
  for (const std::uint64_t kb : churn_kb)
    truth[chase_request(selector, kb * 1024)] =
        common::json_number(router.answer(chase_query(kb * 1024)).value);
  for (int chip = 0; chip < noc_chips; ++chip)
    truth[noc_request(selector, chip)] =
        common::json_number(router.answer(noc_query(chip)).value);

  serve::ServerOptions options;
  options.sim_threads = threads;
  options.debug_value_skew = perturb;

  options.cache_capacity = 1024;  // no eviction pressure
  m.profiles.push_back(run_profile("duplicate-heavy", heavy, truth,
                                   heavy_sim, heavy_unique.size(), clients,
                                   options));
  options.cache_capacity = kChurnCapacity;
  m.profiles.push_back(run_profile("eviction-churn", churn, truth,
                                   churn.size(), churn_kb.size(),
                                   /*clients=*/1, options));

  // ---- gates -----------------------------------------------------------
  const ProfileRun& h = m.profiles[0];
  const ProfileRun& e = m.profiles[1];
  bench::add_check(m.verdicts, "serve.identity.duplicate-heavy", h.identity,
                   "every daemon answer must be byte-identical to the "
                   "direct QueryRouter run");
  bench::add_check(m.verdicts, "serve.hit-rate", h.hit_rate >= 0.90,
                   "cache hit rate " + common::fmt_num(h.hit_rate, 3) +
                       " (gate: >= 0.90 of simulation-required requests)");
  const std::uint64_t duplicates =
      static_cast<std::uint64_t>(h.sim_requests - h.sim_unique);
  bench::add_check(
      m.verdicts, "serve.hits-equal-duplicates", h.cache_hits == duplicates,
      "cache_hits=" + std::to_string(h.cache_hits) + " duplicates=" +
          std::to_string(duplicates) + " at " + std::to_string(clients) +
          " clients (single-flight dedup must make these equal)");
  bench::add_check(
      m.verdicts, "serve.accounting",
      h.analytic + h.cache_misses + h.cache_hits == h.requests,
      "analytic + sim + hits = " + std::to_string(h.analytic) + " + " +
          std::to_string(h.cache_misses) + " + " +
          std::to_string(h.cache_hits) + " vs " +
          std::to_string(h.requests) + " requests");
  bench::add_check(m.verdicts, "serve.identity.eviction-churn", e.identity,
                   "recomputed-after-eviction answers must still be "
                   "byte-identical to the direct run");
  const std::uint64_t expected_evictions = static_cast<std::uint64_t>(
      kChurnRounds * churn_kb.size() - kChurnCapacity);
  bench::add_check(
      m.verdicts, "serve.eviction-exact",
      e.cache_hits == 0 && e.cache_evictions == expected_evictions,
      "hits=" + std::to_string(e.cache_hits) + " evictions=" +
          std::to_string(e.cache_evictions) + " (expected 0 and " +
          std::to_string(expected_evictions) + ": LRU thrash)");
  return m;
}

std::string report_json(const std::vector<MachineServe>& machines,
                        bool ok) {
  std::string out = "{\n  \"bench\": \"serve\",\n  \"all_ok\": ";
  out += ok ? "true" : "false";
  out += ",\n  \"machines\": [";
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const MachineServe& m = machines[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n      \"machine\": " + common::json_quote(m.selector) +
           ",\n      \"profiles\": [";
    for (std::size_t p = 0; p < m.profiles.size(); ++p) {
      const ProfileRun& r = m.profiles[p];
      out += std::string(p == 0 ? "\n" : ",\n") +
             "        {\"profile\": " + common::json_quote(r.profile) +
             ", \"requests\": " + std::to_string(r.requests) +
             ", \"sim_requests\": " + std::to_string(r.sim_requests) +
             ", \"sim_unique\": " + std::to_string(r.sim_unique) +
             ", \"cache_hits\": " + std::to_string(r.cache_hits) +
             ", \"cache_misses\": " + std::to_string(r.cache_misses) +
             ", \"cache_evictions\": " + std::to_string(r.cache_evictions) +
             ", \"analytic\": " + std::to_string(r.analytic) +
             ", \"hit_rate\": " + common::json_number(r.hit_rate) +
             ", \"identity\": " + (r.identity ? "true" : "false") +
             ", \"value_digest\": " + common::json_quote(r.value_digest) +
             "}";
    }
    out += "\n      ]\n    }";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const std::string machines_arg = args.get_string(
      "machines", "all",
      "comma-separated registry presets; \"all\" = every registry preset");
  const std::string json_path = args.get_string(
      "json", "", "write the serving report (JSON) here; \"\" = off");
  const bool gate = args.get_flag(
      "gate", "exit 1 unless every identity/hit-rate/accounting gate holds");
  const auto requests_opt = bench::bounded_int_arg(
      args, "requests", 200, 40, 100000,
      "requests in the duplicate-heavy stream");
  const auto clients_opt = bench::bounded_int_arg(
      args, "clients", 4, 1, 64, "concurrent client connections");
  const double perturb = args.get_double(
      "perturb", 0.0,
      "skew every cached value by this much (gate self-test)");
  const std::optional<std::size_t> threads_opt = bench::threads_arg(args);
  const bool no_audit = bench::no_audit_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!requests_opt || !clients_opt || !threads_opt) return 2;

  bench::print_header("Serving gate",
                      "p8serve daemon vs direct two-tier answering");

  std::vector<std::string> selectors;
  if (machines_arg == "all") {
    selectors = sim::machine_names();
  } else {
    std::string token;
    for (const char ch : machines_arg + ",") {
      if (ch != ',') {
        token += ch;
        continue;
      }
      if (!token.empty()) selectors.push_back(token);
      token.clear();
    }
  }
  if (selectors.empty()) {
    std::fprintf(stderr, "error: --machines selected nothing\n");
    return 2;
  }

  std::vector<MachineServe> machines;
  for (const std::string& selector : selectors) {
    const auto spec = bench::load_machine(selector);
    if (!spec) return 2;
    if (!bench::gate_model(spec->machine(), no_audit)) return 2;
    machines.push_back(run_machine(
        selector, *spec, static_cast<std::size_t>(*requests_opt),
        static_cast<int>(*clients_opt), *threads_opt, perturb));
  }

  bool all_ok = true;
  common::TextTable t({"Machine", "profile", "requests", "hit rate",
                       "evictions", "identity", "req/s"});
  for (const MachineServe& m : machines) {
    const int failed = bench::print_failed(m.selector, m.verdicts);
    all_ok = all_ok && failed == 0;
    for (const ProfileRun& r : m.profiles)
      t.add_row({m.selector, r.profile, std::to_string(r.requests),
                 common::fmt_num(r.hit_rate, 3),
                 std::to_string(r.cache_evictions),
                 r.identity ? "yes" : "NO",
                 r.seconds > 0.0
                     ? common::fmt_num(static_cast<double>(r.requests) /
                                           r.seconds,
                                       0)
                     : "-"});
  }
  std::printf("%s\n", t.to_string().c_str());

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string body = report_json(machines, all_ok);
    std::fputs(body.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::printf(all_ok ? "serving gate: all gates hold\n"
                     : "serving gate: FAILURES (see stderr)\n");
  // Report mode always exits 0 (sweep scripts collect the artifact
  // either way); --gate turns failures into a non-zero exit.
  return gate && !all_ok ? 1 : 0;
}
