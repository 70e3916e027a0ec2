// p8serve — the persistent sweep-as-a-service daemon and its client
// (src/serve, protocol in docs/SERVE.md).
//
//   p8serve serve    --socket=PATH [--cache-capacity=N]
//                    [--machine-capacity=N] [--sim-threads=N]
//                    [--max-line-bytes=N]
//   p8serve query    --socket=PATH --machine=M --kind=K [query options]
//   p8serve request  --socket=PATH [--line=JSON]   (no --line: stdin)
//   p8serve stats    --socket=PATH
//   p8serve ping     --socket=PATH
//   p8serve shutdown --socket=PATH
//
// `serve` runs the daemon in the foreground until a "shutdown"
// request (or SIGINT/SIGTERM) arrives, then drains and removes the
// socket.  `query` builds a single-query request from flags and
// fails (exit 1) when the daemon answers with an error.  `request`
// is the raw escape hatch: it ships the given line — or every stdin
// line over one connection — verbatim and prints the response(s),
// exiting 0 whenever the transport worked, whatever the daemon said;
// hostile-input tests and the tier1 smoke cycle are built on it.
// Exit codes: 0 ok, 1 daemon/transport error, 2 usage error.
#include <signal.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace p8;

void usage(std::FILE* to) {
  std::fputs(
      "usage: p8serve <serve|query|request|stats|ping|shutdown> [options]\n"
      "  serve    --socket=PATH [--cache-capacity=N] [--machine-capacity=N]\n"
      "           [--sim-threads=N] [--max-line-bytes=N]\n"
      "  query    --socket=PATH --machine=M --kind=K [--footprint=BYTES]\n"
      "           [--page=BYTES] [--dscr=N] [--pattern=P] [--stride=LINES]\n"
      "           [--consumer-chip=N] [--home-chip=N] [--read=X] "
      "[--write=X]\n"
      "           [--chips=N] [--cores=N] [--threads=N] [--streams=N] "
      "[--id=N]\n"
      "  request  --socket=PATH [--line=JSON]   (without --line: one\n"
      "           request per stdin line, all over one connection)\n"
      "  stats    --socket=PATH\n"
      "  ping     --socket=PATH\n"
      "  shutdown --socket=PATH\n"
      "kinds: chase-latency stream-latency stream-bandwidth "
      "random-bandwidth\n"
      "       noc-latency        patterns: random forward-stride "
      "backward-stride\n",
      to);
}

// p8lint: allow(conc-volatile) sig_atomic_t is the async-signal-safe idiom
volatile sig_atomic_t g_signalled = 0;
void on_signal(int) { g_signalled = 1; }

int finish_or_usage(common::ArgParser& args) {
  if (args.help_requested()) {
    usage(stdout);
    return 0;
  }
  const std::vector<std::string> unknown = args.unknown_args();
  if (!unknown.empty()) {
    for (const std::string& name : unknown) {
      const std::string hint = args.suggest(name);
      std::fprintf(stderr, "error: unknown option --%s%s\n", name.c_str(),
                   hint.empty() ? "" : ("; did you mean --" + hint + "?")
                                           .c_str());
    }
    usage(stderr);
    return 2;
  }
  return -1;  // proceed
}

std::string socket_arg(common::ArgParser& args) {
  return args.get_string("socket", "", "daemon socket path (required)");
}

int cmd_serve(common::ArgParser& args) {
  serve::ServerOptions options;
  options.socket_path = socket_arg(args);
  // Counts are read signed and range-checked before the size_t cast: a
  // negative value must not wrap to SIZE_MAX and unbound an LRU.  The
  // minimums are the Server's own requirements; the maximums are far
  // past any deployment.  Either way the error is a usage error.
  const auto cache_capacity = bench::bounded_int_arg(
      args, "cache-capacity", 1024, 1, std::int64_t{1} << 32,
      "resident simulation results (LRU beyond)");
  const auto machine_capacity = bench::bounded_int_arg(
      args, "machine-capacity", 4, 1, std::int64_t{1} << 20,
      "distinct machines kept warm (LRU beyond)");
  const auto sim_threads = bench::bounded_int_arg(
      args, "sim-threads", 0, 0, 4096,
      "simulation pool workers (0 = hardware threads)");
  const auto max_line_bytes = bench::bounded_int_arg(
      args, "max-line-bytes", 1 << 20, 64, std::int64_t{1} << 32,
      "longest accepted request line");
  const int early = finish_or_usage(args);
  if (early >= 0) return early;
  if (options.socket_path.empty()) {
    std::fputs("error: --socket is required\n", stderr);
    return 2;
  }
  if (!cache_capacity || !machine_capacity || !sim_threads ||
      !max_line_bytes) {
    usage(stderr);
    return 2;
  }
  options.cache_capacity = static_cast<std::size_t>(*cache_capacity);
  options.machine_capacity = static_cast<std::size_t>(*machine_capacity);
  options.sim_threads = static_cast<std::size_t>(*sim_threads);
  options.max_line_bytes = static_cast<std::size_t>(*max_line_bytes);

  serve::Server server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "p8serve: listening on %s\n",
               options.socket_path.c_str());

  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  while (!server.stop_requested() && g_signalled == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  std::fputs("p8serve: stopped\n", stderr);
  return 0;
}

/// True when `response` is an {"ok": true, ...} line.  The client
/// side only needs this one bit; everything else is printed verbatim.
bool response_ok(const std::string& response) {
  return response.find("\"ok\": true") != std::string::npos;
}

int send_and_print(const std::string& socket_path, const std::string& line,
                   bool fail_on_error_response) {
  try {
    const std::string response = serve::request_once(socket_path, line);
    std::printf("%s\n", response.c_str());
    return fail_on_error_response && !response_ok(response) ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

int send_query(common::ArgParser& args) {
  const std::string socket_path = socket_arg(args);
  const std::string machine =
      args.get_string("machine", "e870", "preset name or spec.json path");
  const std::string kind =
      args.get_string("kind", "", "query kind (required)");
  const std::int64_t footprint =
      args.get_int("footprint", 1 << 20, "chase working-set bytes");
  const std::int64_t page = args.get_int("page", 64 * 1024, "page bytes");
  const std::int64_t dscr = args.get_int("dscr", 1, "prefetch depth");
  const std::string pattern =
      args.get_string("pattern", "random", "chase access pattern");
  const std::int64_t stride = args.get_int("stride", 1, "stride in lines");
  const std::int64_t consumer_chip =
      args.get_int("consumer-chip", 0, "chip issuing the accesses");
  const std::int64_t home_chip =
      args.get_int("home-chip", 0, "chip homing the memory");
  const double read = args.get_double("read", 2.0, "read share of the mix");
  const double write =
      args.get_double("write", 1.0, "write share of the mix");
  const std::int64_t chips = args.get_int("chips", 1, "active chips");
  const std::int64_t cores = args.get_int("cores", 1, "cores per chip");
  const std::int64_t threads =
      args.get_int("threads", 1, "SMT threads per core");
  const std::int64_t streams =
      args.get_int("streams", 1, "concurrent random streams");
  const std::int64_t id = args.get_int("id", -1, "correlation id (-1: none)");
  const int early = finish_or_usage(args);
  if (early >= 0) return early;
  if (socket_path.empty() || kind.empty()) {
    std::fputs("error: --socket and --kind are required\n", stderr);
    return 2;
  }

  std::string line = "{\"verb\": \"query\"";
  if (id >= 0) line += ", \"id\": " + std::to_string(id);
  // --machine accepts what the benches accept: a registry preset name
  // travels as a string, a .json path is loaded and sent inline.
  if (common::iends_with(machine, ".json")) {
    try {
      line += ", \"machine\": " +
              common::json_dump(common::Json::parse(
                  [&] {
                    std::FILE* f = std::fopen(machine.c_str(), "rb");
                    if (f == nullptr)
                      throw std::runtime_error("cannot open " + machine);
                    std::string text;
                    char buf[4096];
                    std::size_t n;
                    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
                      text.append(buf, n);
                    std::fclose(f);
                    return text;
                  }()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else {
    line += ", \"machine\": " + common::json_quote(machine);
  }
  line += ", \"query\": {\"kind\": " + common::json_quote(kind);
  line += ", \"footprint_bytes\": " + std::to_string(footprint);
  line += ", \"page_bytes\": " + std::to_string(page);
  line += ", \"dscr\": " + std::to_string(dscr);
  line += ", \"pattern\": " + common::json_quote(pattern);
  line += ", \"stride_lines\": " + std::to_string(stride);
  line += ", \"consumer_chip\": " + std::to_string(consumer_chip);
  line += ", \"home_chip\": " + std::to_string(home_chip);
  line += ", \"read\": " + common::json_number(read);
  line += ", \"write\": " + common::json_number(write);
  line += ", \"chips\": " + std::to_string(chips);
  line += ", \"cores\": " + std::to_string(cores);
  line += ", \"threads\": " + std::to_string(threads);
  line += ", \"streams\": " + std::to_string(streams);
  line += "}}";
  return send_and_print(socket_path, line, /*fail_on_error_response=*/true);
}

int cmd_query(common::ArgParser& args) {
  // A numeric flag whose value does not parse throws from the parser;
  // that is a usage error like an unknown flag, not an abort.  Range
  // checks stay with the daemon.
  try {
    return send_query(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage(stderr);
    return 2;
  }
}

int cmd_request(common::ArgParser& args) {
  const std::string socket_path = socket_arg(args);
  const std::string line =
      args.get_string("line", "", "raw request line (default: stdin)");
  const int early = finish_or_usage(args);
  if (early >= 0) return early;
  if (socket_path.empty()) {
    std::fputs("error: --socket is required\n", stderr);
    return 2;
  }
  if (!line.empty())
    return send_and_print(socket_path, line,
                          /*fail_on_error_response=*/false);
  try {
    serve::Client client(socket_path);
    std::string in;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, stdin)) > 0) in.append(buf, n);
    std::size_t start = 0;
    while (start < in.size()) {
      std::size_t nl = in.find('\n', start);
      if (nl == std::string::npos) nl = in.size();
      const std::string one = in.substr(start, nl - start);
      start = nl + 1;
      if (one.empty()) continue;
      std::printf("%s\n", client.request(one).c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

int cmd_admin(common::ArgParser& args, const std::string& verb) {
  const std::string socket_path = socket_arg(args);
  const int early = finish_or_usage(args);
  if (early >= 0) return early;
  if (socket_path.empty()) {
    std::fputs("error: --socket is required\n", stderr);
    return 2;
  }
  return send_and_print(socket_path,
                        "{\"verb\": " + common::json_quote(verb) + "}",
                        /*fail_on_error_response=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage(stdout);
    return 0;
  }
  common::ArgParser args(argc - 1, argv + 1);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "query") return cmd_query(args);
  if (cmd == "request") return cmd_request(args);
  if (cmd == "stats") return cmd_admin(args, "stats");
  if (cmd == "ping") return cmd_admin(args, "ping");
  if (cmd == "shutdown") return cmd_admin(args, "shutdown");
  std::fprintf(stderr, "error: unknown command '%s'\n", cmd.c_str());
  usage(stderr);
  return 2;
}
