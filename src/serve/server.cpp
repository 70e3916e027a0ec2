#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/timer.hpp"
#include "predict/machine_predict.hpp"
#include "serve/protocol.hpp"
#include "sim/machine/spec.hpp"
#include "sim/machine/sweep.hpp"

namespace p8::serve {

namespace {

/// Loop-tick granularity: every blocking wait is a poll() with this
/// timeout so the stop flag is honoured promptly.
constexpr int kPollMillis = 100;

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a client that vanished mid-response must surface
    // as EPIPE here, not as a process-killing SIGPIPE.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Throws the error response's message for the first query `request`
/// carries that `spec` cannot run.
void validate_queries(const Request& request, const sim::MachineSpec& spec) {
  for (std::size_t i = 0; i < request.queries.size(); ++i) {
    const std::string problem = validate_query(request.queries[i], spec);
    if (!problem.empty())
      throw std::invalid_argument(
          (request.batch ? "queries[" + std::to_string(i) + "]: "
                         : "query: ") +
          problem);
  }
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " + std::strerror(errno));
}

}  // namespace

/// All per-machine answering state: the two-tier router plus the
/// task-graph dispatcher for batched fallbacks, both on the server's
/// shared pool.  Keyed (and LRU-evicted) by the machine's canonical
/// JSON, held as the result cache's interned copy so every cache
/// lookup for this machine passes the handle, not the bytes;
/// shared_ptr keeps an evicted machine alive for requests already
/// holding it.  The two request selectors let a repeat request find
/// its machine without resolving, auditing or serializing the spec
/// again.
struct Server::MachineState {
  const ResultCache::Machine canonical_json;
  /// Compact dump of canonical_json: exactly what parse_request makes
  /// of an inline spec written in schema order.
  std::string inline_json;
  /// The preset name this machine was last resolved under, "" if none.
  /// Guarded by machines_mutex_.
  std::string preset_name;
  predict::QueryRouter router;
  sim::SweepRunner dispatch;

  MachineState(const sim::MachineSpec& spec, ResultCache::Machine canonical,
               common::ThreadPool& pool)
      : canonical_json(std::move(canonical)),
        inline_json(common::json_dump(common::Json::parse(*canonical_json))),
        router(spec, pool),
        dispatch(pool) {
    dispatch.set_task_label("serve-sim");
  }

  /// True when `request` names this machine by a selector it was
  /// resolved under.  Equal selectors mean an equal spec, so the
  /// audit it passed and its canonical JSON still hold.
  bool selected_by(const Request& request) const {
    return request.machine_name.empty()
               ? request.machine_inline_json == inline_json
               : request.machine_name == preset_name;
  }
};

Server::Server(const ServerOptions& options)
    : options_(options),
      pool_(options.sim_threads == 0 ? common::default_thread_count()
                                     : options.sim_threads),
      cache_(options.cache_capacity) {
  P8_REQUIRE(options.machine_capacity >= 1, "machine capacity must be >= 1");
  P8_REQUIRE(options.max_line_bytes >= 64, "line limit too small to parse");
  cache_.set_debug_value_skew(options.debug_value_skew);
  requests_ = sim::make_counter(&registry_, "serve.", "requests");
  queries_ = sim::make_counter(&registry_, "serve.", "queries");
  analytic_ = sim::make_counter(&registry_, "serve.", "analytic");
  sim_ = sim::make_counter(&registry_, "serve.", "sim");
  errors_ = sim::make_counter(&registry_, "serve.", "errors");
  connections_ = sim::make_counter(&registry_, "serve.", "connections");
  machines_loaded_ = sim::make_counter(&registry_, "serve.", "machines_loaded");
  machines_evicted_ =
      sim::make_counter(&registry_, "serve.", "machines_evicted");
  // Disjoint handling-time bins; a name is its bin's inclusive upper
  // bound, the last bin catches everything slower.
  latency_buckets_.emplace_back(
      100e-6, sim::make_counter(&registry_, "serve.", "latency.le_100us"));
  latency_buckets_.emplace_back(
      1e-3, sim::make_counter(&registry_, "serve.", "latency.le_1ms"));
  latency_buckets_.emplace_back(
      10e-3, sim::make_counter(&registry_, "serve.", "latency.le_10ms"));
  latency_buckets_.emplace_back(
      100e-3, sim::make_counter(&registry_, "serve.", "latency.le_100ms"));
  latency_buckets_.emplace_back(
      1.0, sim::make_counter(&registry_, "serve.", "latency.le_1s"));
  latency_buckets_.emplace_back(
      std::numeric_limits<double>::infinity(),
      sim::make_counter(&registry_, "serve.", "latency.gt_1s"));
}

Server::~Server() { stop(); }

void Server::count_error() {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  errors_.add();
}

void Server::count_latency(double seconds) {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  for (auto& [bound, counter] : latency_buckets_) {
    if (seconds <= bound) {
      counter.add();
      return;
    }
  }
  latency_buckets_.back().second.add();
}

std::shared_ptr<Server::MachineState> Server::resolve_machine(
    const Request& request) {
  {
    std::lock_guard<std::mutex> lock(machines_mutex_);
    for (auto it = machines_.begin(); it != machines_.end(); ++it) {
      if (!(*it)->selected_by(request)) continue;
      // Validated against the spec the router was built from; an
      // invalid query leaves the LRU order untouched, as it does on
      // the resolving path below.
      validate_queries(request, (*it)->router.predictor().spec());
      machines_.splice(machines_.begin(), machines_, it);
      return machines_.front();
    }
  }

  const sim::MachineSpec spec =
      request.machine_name.empty()
          ? sim::MachineSpec::from_json(request.machine_inline_json)
          : sim::machine_spec(request.machine_name);
  const sim::AuditReport report = spec.audit();
  if (!report.ok())
    throw std::invalid_argument("machine audit failed:\n" +
                                report.to_string());
  validate_queries(request, spec);
  const std::string canonical = spec.to_json();

  std::lock_guard<std::mutex> lock(machines_mutex_);
  for (auto it = machines_.begin(); it != machines_.end(); ++it) {
    if (*(*it)->canonical_json != canonical) continue;
    if (!request.machine_name.empty())
      (*it)->preset_name = request.machine_name;
    machines_.splice(machines_.begin(), machines_, it);
    return machines_.front();
  }
  auto state = std::make_shared<MachineState>(
      sim::MachineSpec::from_json(canonical), cache_.intern(canonical), pool_);
  state->preset_name = request.machine_name;
  machines_.push_front(state);
  std::uint64_t evicted = 0;
  while (machines_.size() > options_.machine_capacity) {
    machines_.pop_back();
    ++evicted;
  }
  {
    std::lock_guard<std::mutex> counters(counters_mutex_);
    machines_loaded_.add();
    machines_evicted_.add(evicted);
  }
  return state;
}

std::string Server::handle_query(const Request& request) {
  const std::shared_ptr<MachineState> state = resolve_machine(request);
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    queries_.add(request.queries.size());
  }

  std::vector<AnswerWire> wires(request.queries.size());
  std::vector<std::size_t> sim_idx;
  for (std::size_t i = 0; i < request.queries.size(); ++i) {
    const predict::Query& q = request.queries[i];
    if (state->router.analytic_servable(q)) {
      wires[i] = AnswerWire{state->router.answer(q).value, true, false};
    } else {
      sim_idx.push_back(i);
    }
  }

  // Simulation-required queries go through the content-addressed
  // cache; single-flight lookups inside make duplicates — across
  // clients, within a batch, concurrent or serial — exact cache hits.
  const auto compute_one = [&](std::size_t i) {
    const predict::Query& q = request.queries[i];
    return cache_.get_or_compute(
        state->canonical_json, query_canonical_json(q),
        [&] { return state->router.answer(q).value; });
  };

  std::uint64_t simulated = 0;
  if (sim_idx.size() == 1) {
    const ResultCache::Outcome outcome = compute_one(sim_idx[0]);
    wires[sim_idx[0]] = AnswerWire{outcome.value, false, outcome.cached};
    if (!outcome.cached) ++simulated;
  } else if (!sim_idx.empty()) {
    // Batched fallbacks become one flat task graph on the shared
    // pool.  The dispatch mutex serializes graph launches (the
    // fork-join engine runs one region at a time); cache waits inside
    // a task only ever block on a computation already running
    // elsewhere, so the graph cannot deadlock on itself.
    std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
    const std::vector<ResultCache::Outcome> outcomes = state->dispatch.run(
        sim_idx.size(),
        [&](std::size_t k) { return compute_one(sim_idx[k]); });
    for (std::size_t k = 0; k < sim_idx.size(); ++k) {
      wires[sim_idx[k]] =
          AnswerWire{outcomes[k].value, false, outcomes[k].cached};
      if (!outcomes[k].cached) ++simulated;
    }
  }

  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    analytic_.add(request.queries.size() - sim_idx.size());
    sim_.add(simulated);
  }
  return query_response(request.id, wires, request.batch);
}

std::string Server::handle_line(const std::string& line) {
  const common::Timer timer;
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    requests_.add();
  }
  std::optional<std::uint64_t> id;
  std::string response;
  try {
    const Request request = parse_request(line);
    id = request.id;
    switch (request.verb) {
      case Request::Verb::kQuery:
        response = handle_query(request);
        break;
      case Request::Verb::kStats:
        response = stats_response(request.id, counters_snapshot());
        break;
      case Request::Verb::kPing:
        response = ping_response(request.id);
        break;
      case Request::Verb::kShutdown:
        request_stop();
        response = shutdown_response(request.id);
        break;
    }
  } catch (const std::exception& e) {
    count_error();
    if (!id) id = request_id_best_effort(line);
    response = error_response(id, e.what());
  }
  count_latency(timer.seconds());
  return response;
}

std::vector<std::pair<std::string, std::uint64_t>>
Server::counters_snapshot() {
  const ResultCache::Stats stats = cache_.stats();
  const std::size_t machines = cache_.machines();
  std::lock_guard<std::mutex> lock(counters_mutex_);
  *registry_.slot("serve.cache_hits") = stats.hits;
  *registry_.slot("serve.cache_misses") = stats.misses;
  *registry_.slot("serve.cache_evictions") = stats.evictions;
  *registry_.slot("serve.cache_machines") = machines;
  return registry_.snapshot();
}

// ---- transport ------------------------------------------------------------

void Server::start() {
  P8_REQUIRE(!started_, "server already started");
  P8_REQUIRE(!options_.socket_path.empty(), "socket path must be set");
  const std::string& path = options_.socket_path;

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error(
        "serve: socket path is " + std::to_string(path.size()) +
        " bytes; the AF_UNIX limit is " +
        std::to_string(sizeof(addr.sun_path) - 1));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) fail_errno("socket");

  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const int bind_errno = errno;
    if (bind_errno != EADDRINUSE) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      errno = bind_errno;
      fail_errno("bind " + path);
    }
    // Crash recovery: something occupies the path.  A live daemon
    // accepts our probe connect; a stale socket left by a crashed one
    // refuses it (no listener) and is safe to reclaim.  Anything else
    // (a regular file, a directory) is not ours to delete.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      fail_errno("socket");
    }
    const int rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof addr);
    const int connect_errno = errno;
    ::close(probe);
    if (rc == 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("serve: " + path +
                               " is already being served by a live daemon");
    }
    if (connect_errno != ECONNREFUSED) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("serve: " + path +
                               " exists and is not a stale socket (" +
                               std::strerror(connect_errno) +
                               "); refusing to remove it");
    }
    // Linux also reports ECONNREFUSED for a path that exists but is
    // not a socket at all, so the errno alone cannot distinguish a
    // stale socket from someone's regular file — only S_ISSOCK can.
    struct stat st {};
    if (::lstat(path.c_str(), &st) == 0 && !S_ISSOCK(st.st_mode)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("serve: " + path +
                               " exists and is not a stale socket; "
                               "refusing to remove it");
    }
    ::unlink(path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
      const int again = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      errno = again;
      fail_errno("bind " + path);
    }
  }

  if (::listen(listen_fd_, 64) != 0) {
    const int listen_errno = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path.c_str());
    errno = listen_errno;
    fail_errno("listen " + path);
  }

  stop_.store(false);
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (!stop_.load()) {
    reap_connections();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the flag
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      connections_.add();
    }
    std::lock_guard<std::mutex> lock(threads_mutex_);
    Connection& connection = connection_threads_.emplace_back();
    connection.thread = std::thread([this, fd, &connection] {
      connection_loop(fd);
      connection.done.store(true);
    });
  }
}

void Server::reap_connections() {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  for (auto it = connection_threads_.begin(); it != connection_threads_.end();)
    if (it->done.load()) {
      it->thread.join();
      it = connection_threads_.erase(it);
    } else {
      ++it;
    }
}

void Server::connection_loop(int fd) {
  std::string buffer;
  bool closing = false;
  while (!stop_.load() && !closing) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      // Peer EOF with bytes still buffered: a frame that ended
      // without its newline.  Report it (the peer may only have
      // shut down its write side) and close.
      if (!buffer.empty()) {
        count_error();
        send_all(fd, error_response(std::nullopt,
                                    "truncated frame: request line ended "
                                    "without a newline"));
      }
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;
    std::size_t nl;
    while (!closing &&
           (nl = buffer.find('\n', start)) != std::string::npos) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;  // blank lines are keep-alive no-ops
      if (line.size() > options_.max_line_bytes) {
        count_error();
        send_all(fd, error_response(
                         std::nullopt,
                         "oversized frame: request line exceeds " +
                             std::to_string(options_.max_line_bytes) +
                             " bytes"));
        closing = true;
        break;
      }
      if (!send_all(fd, handle_line(line))) closing = true;
      if (stop_.load()) closing = true;
    }
    buffer.erase(0, start);
    // A newline-less frame must not buffer unboundedly either.
    if (!closing && buffer.size() > options_.max_line_bytes) {
      count_error();
      send_all(fd, error_response(std::nullopt,
                                  "oversized frame: request line exceeds " +
                                      std::to_string(options_.max_line_bytes) +
                                      " bytes"));
      closing = true;
    }
  }
  ::close(fd);
}

void Server::request_stop() { stop_.store(true); }

void Server::wait() {
  if (!started_) return;
  stop_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connections.swap(connection_threads_);
  }
  for (Connection& c : connections) c.thread.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  started_ = false;
}

void Server::stop() {
  request_stop();
  wait();
}

}  // namespace p8::serve
