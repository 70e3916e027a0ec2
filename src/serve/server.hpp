// The p8serve daemon core: a persistent sweep-as-a-service process.
//
// One Server owns the two-tier answering stack for any number of
// machines at once:
//
//   request line ──parse──▶ resolve machine ──validate──▶ route ──▶
//        analytic-servable   → answered inline, O(1), no cache
//        simulation-required → content-addressed ResultCache
//             miss  → event-driven simulator (batches fan across a
//                     shared SweepRunner task graph)
//             hit   → memoized value, byte-identical to the miss
//
// Warm machines are an LRU-bounded set of QueryRouters, one per
// distinct canonical spec, all sharing ONE ThreadPool.  Each answers
// to two selectors: the preset name it was last resolved under and
// the compact dump of its canonical spec (what an inline spec written
// in schema order parses to).  A request carrying either skips the
// preset lookup or spec parse, the audit and the canonical
// serialization, so those run once per distinct spec; its queries are
// still validated against the stored spec.  Anything else (a machine
// seen first, an inline spec in another member order) resolves in
// full and then finds or builds its router by canonical JSON.
//
// Answers are bit-identical to calling the Predictor / ubench
// directly: the cache stores the exact double the simulator produced
// and responses render through common::json_number, so equal doubles
// serialize to equal bytes (the end-to-end contract serve_test and
// bench_serve --gate enforce).
//
// Transport is line-delimited JSON over a local Unix-domain stream
// socket (protocol.hpp, docs/SERVE.md).  Every connection gets its
// own thread, which the accept loop joins soon after the connection
// closes; all loops poll with a short timeout and honour the stop
// flag, so `stop()` (or a "shutdown" request) winds the daemon down
// without killing in-flight work.  A stale socket file left by a
// crashed daemon is detected (connect() refused) and reclaimed; a
// path occupied by a live daemon or a non-socket file is an error.
//
// Observability: `serve.*` counters in a CounterRegistry
// (docs/COUNTERS.md) — request/query/routing totals, exact cache
// hit/miss/eviction counts (single-flight lookups make `cache_hits`
// a deterministic function of the query stream), and a cumulative
// handling-latency histogram.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/threading.hpp"
#include "serve/cache.hpp"
#include "sim/counters.hpp"

namespace p8::serve {

struct Request;

struct ServerOptions {
  /// Filesystem path of the listening Unix-domain socket.
  std::string socket_path;
  /// Completed simulation results kept resident (LRU beyond this).
  std::size_t cache_capacity = 1024;
  /// Distinct machines kept warm (router + simulator state; LRU).
  std::size_t machine_capacity = 4;
  /// Workers in the shared simulation pool; 0 = hardware threads.
  std::size_t sim_threads = 0;
  /// Longest accepted request line; longer frames are rejected with
  /// an error response and the connection is closed.
  std::size_t max_line_bytes = 1u << 20;
  /// Fault-injection seam wired to ResultCache::set_debug_value_skew
  /// (the bench_serve --perturb twin).  0 = off.
  double debug_value_skew = 0.0;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket (reclaiming a stale file if a previous daemon
  /// crashed) and starts accepting connections.  Throws
  /// std::runtime_error when the path is unusable or already served.
  void start();

  /// Asks every loop to wind down (what the "shutdown" verb does).
  void request_stop();
  bool stop_requested() const { return stop_.load(); }

  /// Joins the accept and connection threads, closes the listening
  /// socket and unlinks the socket file.  Returns once the daemon is
  /// fully quiescent; idempotent.
  void wait();

  /// request_stop() + wait().
  void stop();

  const ServerOptions& options() const { return options_; }

  /// Parses and answers one request line, returning the LF-terminated
  /// response line.  This is the whole daemon minus the transport —
  /// exposed so protocol and routing behaviour unit-test without a
  /// socket.  Thread-safe.
  std::string handle_line(const std::string& line);

  /// Name-sorted `serve.*` counters with the cache totals synced in —
  /// the payload of the "stats" verb.  Thread-safe.
  std::vector<std::pair<std::string, std::uint64_t>> counters_snapshot();

  ResultCache& cache() { return cache_; }

 private:
  struct MachineState;

  /// The warm machine `request` selects, with every query validated
  /// against its spec (throws std::invalid_argument otherwise).  A
  /// request repeating a warm machine's preset name or inline spec
  /// finds it directly; anything else is resolved, audited and
  /// serialized, then found by canonical JSON or constructed (LRU-
  /// evicting as needed).
  std::shared_ptr<MachineState> resolve_machine(const Request& request);

  /// One connection's thread.  `done` is its last write, so a thread
  /// that has set it is finished and joins without blocking.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  std::string handle_query(const Request& request);
  void accept_loop();
  /// Joins and forgets the connection threads that have finished, so a
  /// long-running daemon holds threads only for live connections.
  void reap_connections();
  void connection_loop(int fd);
  void count_error();
  void count_latency(double seconds);

  ServerOptions options_;
  common::ThreadPool pool_;
  ResultCache cache_;

  std::mutex machines_mutex_;
  /// Front = most recently used.
  std::list<std::shared_ptr<MachineState>> machines_;

  /// Serializes task-graph dispatches on the shared pool (the graph
  /// engine runs one fork-join region at a time).
  std::mutex dispatch_mutex_;

  std::mutex counters_mutex_;
  sim::CounterRegistry registry_;
  sim::Counter requests_;
  sim::Counter queries_;
  sim::Counter analytic_;
  sim::Counter sim_;
  sim::Counter errors_;
  sim::Counter connections_;
  sim::Counter machines_loaded_;
  sim::Counter machines_evicted_;
  std::vector<std::pair<double, sim::Counter>> latency_buckets_;

  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::mutex threads_mutex_;
  std::list<Connection> connection_threads_;  ///< stable addresses
  bool started_ = false;
};

}  // namespace p8::serve
