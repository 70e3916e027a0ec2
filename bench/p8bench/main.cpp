// p8bench — the repository's end-to-end and per-layer benchmark.
//
//   p8bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//           [--perturb] [--out-dir=DIR]
//   p8bench compare A/*.json B/*.json
//
// One workload runs per process, so peak memory belongs to it alone;
// it uses one worker thread and one client connection per CPU, at most
// 4.  The untraced run reports the end-to-end metrics; `--trace=1`
// records spans around the calls into each layer and reports the
// per-layer metrics instead, both as BENCHMARK.json declares them.
// Every metric prints as `name value unit`, the full result (with
// provenance) goes to DIR/<workload>-seed<N>-trace<T>.json, and the last
// stdout line is a one-line JSON summary.
//
// Exit: 0 clean, 1 an output oracle failed, 2 bad usage or a build that
// must not report numbers (no NDEBUG, or contract checks forced on).
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/cli.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace p8bench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"chase-sweep",
       "Fig. 2 random chase, 16 KB-512 MB: TLB, cache hierarchy, victim scan "
       "and task engine do the work; prefetch engine idle",
       "sweep passes on one SweepRunner, one worker per CPU (at most 4)",
       "one pass = 130 chase points, 10.0 M simulated accesses",
       run_chase_sweep},
      {"prefetch-replay",
       "12 recorded streams replayed under DSCR x stride-N: prefetch engine, "
       "in-flight table and trace decode do the work",
       "sweep passes on one SweepRunner, one worker per CPU (at most 4)",
       "one pass = 12 trace files x 8 prefetch settings, 12.6 M simulated "
       "accesses",
       run_prefetch_replay},
      {"serve-analytic",
       "analytic-servable p8serve queries: parse, resolve, route, render and "
       "transport do the work; cache and simulator bypassed",
       "closed loop, one connection per CPU (at most 4)", "one request",
       run_serve_analytic},
      {"serve-sim-mix",
       "30% analytic, 70% simulation-required p8serve queries over a sliding "
       "12-key pool (cache hit ratio 0.925): cache hits, misses and the "
       "simulator",
       "closed loop, one connection per CPU (at most 4)", "one request",
       run_serve_sim_mix},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

namespace {

int run_main(int argc, const char* const* argv) {
  const BenchmarkSpec spec = load_benchmark();
  p8::common::ArgParser args(argc, argv);
  const std::string workload = args.get_string(
      "workload", "",
      "chase-sweep, prefetch-replay, serve-analytic or serve-sim-mix");
  const std::int64_t seed = args.get_int("seed", kDefaultSeed, "input seed");
  const double seconds = args.get_double(
      "seconds", spec.run_seconds, "measured window (BENCHMARK.json's run_seconds)");
  const std::int64_t trace = args.get_int(
      "trace", 0, "1 = record spans and report the per-layer metrics");
  const bool perturb = args.get_flag(
      "perturb", "flip one bit of one result (the oracles must fail)");
  const std::string out_dir = args.get_string(
      "out-dir", "build/p8bench/results", "result, span and scratch files");
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  for (const std::string& unknown : args.unknown_args()) {
    std::fprintf(stderr, "p8bench: unknown option --%s", unknown.c_str());
    const std::string hint = args.suggest(unknown);
    if (!hint.empty()) std::fprintf(stderr, " (did you mean --%s?)", hint.c_str());
    std::fputc('\n', stderr);
  }
  if (!args.unknown_args().empty()) return 2;

  const Workload* w = find_workload(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "p8bench: unknown workload '%s' (see --help)\n",
                 workload.c_str());
    return 2;
  }
  if (seed < 0 || !(seconds > 0.0 && seconds <= 3600.0) ||
      (trace != 0 && trace != 1)) {
    std::fputs("p8bench: --seed must be >= 0, --seconds in (0, 3600], "
               "--trace 0 or 1\n",
               stderr);
    return 2;
  }
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "p8bench: refusing to report numbers: %s\n",
                 refusal.c_str());
    return 2;
  }

  Options options;
  options.workload = workload;
  options.seed = static_cast<std::uint64_t>(seed);
  options.seconds = seconds;
  options.traced = trace == 1;
  options.perturb = perturb;
  options.out_dir = out_dir;
  options.threads = std::min<std::size_t>(4, online_cpus());
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  SpanRecorder spans;
  Outcome outcome;
  try {
    outcome = w->run(options, options.traced ? &spans : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p8bench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  conform(outcome, spec, options.traced);
  for (Metric& m : options.traced ? outcome.per_layer : outcome.end_to_end)
    if (!std::isfinite(m.value)) {
      outcome.tally.check(false, "metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  outcome.fact("why", w->why);
  outcome.fact("loop", w->loop);
  outcome.fact("size", w->size);

  const std::string stem = out_dir + "/" + workload + "-seed" +
                           std::to_string(seed) + "-trace" +
                           std::to_string(trace);
  if (options.traced && !spans.write_jsonl(stem + ".spans.jsonl"))
    std::fprintf(stderr, "p8bench: cannot write %s.spans.jsonl\n", stem.c_str());
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fputs(result_json(options, outcome).c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "p8bench: cannot write %s.json\n", stem.c_str());
  }
  for (const std::string& failure : outcome.tally.failures)
    std::fprintf(stderr, "FAIL [%s] %s\n", workload.c_str(), failure.c_str());
  std::fputs(metric_lines(options, outcome).c_str(), stdout);
  std::printf("%s\n", summary_line(options, outcome).c_str());
  std::fflush(stdout);
  return outcome.tally.failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace p8bench

int main(int argc, char** argv) {
  const std::string cmd = argc >= 2 ? argv[1] : "";
  try {
    if (cmd == "compare") return p8bench::compare_main(argc - 2, argv + 2);
    return p8bench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p8bench: %s\n", e.what());
    return 2;
  }
}
