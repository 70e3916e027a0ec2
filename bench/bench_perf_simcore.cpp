// Simulator-core perf harness: how fast does the machine model itself
// run?  Sweep throughput bounds how many configurations every other
// bench can afford to explore, so this binary tracks
//
//  * single-thread hot-path throughput (simulated accesses/second) for
//    the two patterns that dominate the figure benches: the prefetch-
//    heavy sequential scan (inflight table + prefetch engine) and the
//    randomized pointer chase (cache hierarchy + TLB), each replayed
//    through access_batch (what the workload drivers use), and
//  * wall-clock of the Figure 2 working-set sweep, sequential vs
//    fanned across the SweepRunner — at the chosen --threads and at
//    fixed 1/2/4-worker pools so the scaling curve is visible in the
//    checked-in JSON — with a bit-identical check on the results and
//    an FNV-1a checksum over the sweep doubles so drift in the
//    simulated numbers (as opposed to drift in wall-clock speed) is
//    machine-checkable, and
//  * wall-clock of heterogeneous multi-preset sweeps: one SweepRunner
//    run builds every machine-registry preset, a second runs each
//    preset's pointer-chase and stride-replay points, and the calling
//    thread folds per-preset checksums, timed on a 1-worker and a
//    4-worker pool — five machines of wildly different cost
//    overlapping instead of running strictly one after another, and
//  * throughput of the closed-form analytic tier (predict_queries_per_s):
//    chase-latency queries answered by sim::Predictor without touching
//    the event simulator — the fast path bench_predict differentially
//    validates, and
//  * the cost of building one LatencyProbe (probe_construct_us) on the
//    e870, e880 and e850c presets: every Fig. 2 chase point and every
//    simulated p8serve answer pays it once, zero-filling the probe's
//    victim-pool and L4 way arrays before the first access.
//
// Results are printed as a table and written as machine-readable JSON
// (default BENCH_perf_simcore.json), with the host's CPU count and
// model, so the perf trajectory is tracked across PRs.
// --baseline=<file> gates the run against a checked-in baseline
// (exit 1 on sweep_checksum drift, exit 3 on a >25% hot-path
// throughput drop alone); scripts/tier1.sh runs it so.  --task-json
// dumps the heterogeneous sweeps' per-task timeline for plotting
// (EXPERIMENTS.md).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/taskgraph.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "predict/machine_predict.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/spec.hpp"
#include "sim/machine/sweep.hpp"
#include "ubench/workloads.hpp"

namespace {

using namespace p8;

/// Best-of-`reps` replay throughput of `trace`, in Macc/s.
double time_pattern(const sim::Machine& machine, const sim::ProbeOptions& opts,
                    const std::vector<std::uint64_t>& trace, int reps) {
  const double n = static_cast<double>(trace.size());
  // Each repetition replays the same trace through a fresh probe, so
  // every rep lands on the same virtual clock and only the wall-clock
  // varies; best-of-N reports the machine's capability rather than
  // whatever the noisiest rep happened to collide with.
  double best = 0.0;
  for (int k = 0; k < reps; ++k) {
    sim::LatencyProbe probe = machine.probe(opts);
    sim::BatchStats stats;
    common::Timer timer;
    probe.access_batch(trace, stats);
    best = std::max(best, n / timer.seconds() / 1e6);
  }
  return best;
}

/// Unit-stride scan with the deepest prefetch setting — every access
/// goes through the prefetch engine and the in-flight table.
double seq_scan(const sim::Machine& machine, std::uint64_t n, int reps) {
  sim::ProbeOptions opts;
  opts.page_bytes = 16ull << 20;
  opts.dscr = 7;
  std::vector<std::uint64_t> trace(n);
  for (std::uint64_t i = 0; i < n; ++i) trace[i] = i * 128;
  return time_pattern(machine, opts, trace, reps);
}

/// Median wall time, in microseconds, of building and destroying one
/// default LatencyProbe on `preset` — mapping, zero-filling and
/// unmapping the probe's cache arrays.  The median of 31 keeps one
/// page-fault storm or descheduling from setting the number.
double probe_construct_us(const std::string& preset) {
  const sim::Machine machine = sim::machine_spec(preset).machine();
  std::vector<double> us(31);
  for (double& t : us) {
    common::Timer timer;
    { const sim::LatencyProbe probe = machine.probe(sim::ProbeOptions{}); }
    t = timer.seconds() * 1e6;
  }
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  return us[us.size() / 2];
}

/// Fig. 2-style randomized chase over a 16 MB working set — cache way
/// scans and TLB dominate.
double chase(const sim::Machine& machine, std::uint64_t n, int reps) {
  sim::ProbeOptions opts;
  opts.page_bytes = 64 * 1024;
  opts.dscr = 1;
  const std::uint64_t lines = (16ull << 20) / 128;
  // Cheap deterministic scatter over the working set (odd multiplier
  // is a bijection mod the power-of-two line count).
  std::vector<std::uint64_t> trace(n);
  std::uint64_t pos = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    trace[i] = (pos % lines) * 128;
    pos = pos * 2862933555777941757ULL + 3037000493ULL;
  }
  return time_pattern(machine, opts, trace, reps);
}

/// The host's `model name` from /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(": ");
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
      return line.substr(colon + 2);
  }
  return "unknown";
}

std::vector<std::uint64_t> fig2_sizes(std::uint64_t max_mb) {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t ws = common::kib(16); ws <= common::mib(max_mb);) {
    sizes.push_back(ws);
    ws += ws / (ws < common::mib(16) ? 4 : 2);
  }
  return sizes;
}

/// FNV-1a over the raw bytes of the sweep results: any change to a
/// simulated latency — even in the last mantissa bit — changes the
/// checksum, while wall-clock noise cannot.
std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t sweep_checksum(const std::vector<ubench::LatencyPoint>& pts) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& p : pts) {
    h = fnv1a(&p.working_set_bytes, sizeof(p.working_set_bytes), h);
    h = fnv1a(&p.latency_ns, sizeof(p.latency_ns), h);
  }
  return h;
}

/// Closed-form analytic tier throughput: chase-latency queries over 64
/// footprints spanning the latency staircase, visited round-robin
/// (same burst bench_predict gates against the simulator's pace).
double predict_queries_per_s(const predict::Predictor& predictor) {
  std::vector<std::uint64_t> footprints;
  const std::uint64_t lo = 16 * 1024;
  const std::uint64_t hi =
      predictor.level(predictor.level_count() - 2).capacity_bytes * 4;
  for (std::size_t i = 0; i < 64; ++i)
    footprints.push_back(lo + (hi - lo) / 63 * static_cast<std::uint64_t>(i));
  const std::size_t n = 1u << 21;
  double acc = 0.0;
  common::Timer timer;
  for (std::size_t i = 0; i < n; ++i)
    acc += predictor.chase_latency_ns(footprints[i & 63]);
  const double seconds = timer.seconds();
  if (!(acc > 0.0)) std::fprintf(stderr, "warning: degenerate query burst\n");
  return static_cast<double>(n) / seconds;
}

/// Fig. 2 sweep through a SweepRunner with `workers` workers; returns
/// the wall-clock and appends a bit-identity verdict against `ref`.
double timed_sweep(const sim::Machine& machine,
                   const std::vector<std::uint64_t>& sizes, bool no_audit,
                   std::size_t workers,
                   const std::vector<ubench::LatencyPoint>& ref,
                   bool& identical) {
  sim::SweepRunner runner(workers);
  runner.gate_on_audit(machine.audit());
  if (no_audit) runner.waive_audit();
  common::Timer timer;
  const auto out =
      ubench::memory_latency_scan(machine, sizes, 16ull << 20, /*dscr=*/1,
                                  runner);
  const double s = timer.seconds();
  bool same = out.size() == ref.size();
  for (std::size_t i = 0; same && i < ref.size(); ++i)
    same = out[i].working_set_bytes == ref[i].working_set_bytes &&
           out[i].latency_ns == ref[i].latency_ns;
  identical = identical && same;
  return s;
}

/// One run of the heterogeneous multi-preset sweeps.
struct HeteroOutcome {
  double wall_s = 0.0;
  std::uint64_t checksum = 0;  ///< folded per-preset result checksums
  std::size_t tasks = 0;
  std::size_t steals = 0;
  std::string timeline_json;
};

/// Runs the heterogeneous multi-preset work as two sweeps: one builds
/// every registry preset's machine, the next runs each preset's four
/// pointer-chase points and one stride replay.  The calling thread
/// then checksums each preset's results and folds the checksums in
/// registry order, so the result is independent of execution order.
/// Point costs differ wildly across presets (the 192-core e880's
/// victim scans against the 24-core e850c), which is the imbalance the
/// runner's claims fill cores with.
HeteroOutcome run_hetero_sweeps(std::size_t workers, std::uint64_t accesses) {
  const std::vector<std::string> names = sim::machine_names();
  const std::vector<std::uint64_t> working_sets = {
      common::kib(64), common::kib(512), common::mib(4), common::mib(32)};
  const std::size_t per_preset = working_sets.size() + 1;  // + stride

  sim::SweepRunner runner(workers);
  bench::SweepTimeline timeline;
  const auto machines =
      timeline.run(runner, "hetero:build", names.size(), [&](std::size_t m) {
        return std::optional<sim::Machine>(
            sim::machine_spec(names[m]).machine());
      });
  const std::vector<double> values = timeline.run(
      runner, "hetero:point", names.size() * per_preset, [&](std::size_t i) {
        const sim::Machine& machine = *machines[i / per_preset];
        const std::size_t k = i % per_preset;
        if (k == working_sets.size()) {
          ubench::StrideOptions opt;
          opt.accesses = accesses / 2;
          return ubench::stride_latency_ns(machine, opt);
        }
        ubench::ChaseOptions opt;
        opt.working_set_bytes = working_sets[k];
        opt.warm_accesses = accesses / 4;
        opt.measure_accesses = accesses;
        opt.seed = 42 + k;
        return ubench::chase_latency_ns(machine, opt);
      });

  // Per preset: its chase latencies then its stride latency, in
  // registry order — never completion order — so the checksum is
  // bit-identical for any worker count.
  HeteroOutcome out;
  out.checksum = 14695981039346656037ull;
  for (std::size_t m = 0; m < names.size(); ++m) {
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t k = 0; k < per_preset; ++k)
      h = fnv1a(&values[m * per_preset + k], sizeof(double), h);
    out.checksum = fnv1a(&h, sizeof(h), out.checksum);
  }
  out.wall_s = timeline.wall_s;
  out.tasks = timeline.records.size();
  out.steals = common::count_stolen(timeline.records);
  out.timeline_json = timeline.json("perf_simcore.hetero", workers);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser args(argc, argv);
  const auto max_mb_opt = bench::bounded_int_arg(
      args, "max-mb", 512, 1, 1 << 20, "largest Fig. 2 working set in MiB");
  const auto accesses_opt = bench::bounded_int_arg(
      args, "accesses", 4 << 20, 1, std::int64_t{1} << 40,
      "hot-path accesses per pattern");
  const std::optional<std::size_t> threads_opt = bench::threads_arg(args);
  const auto reps_opt = bench::bounded_int_arg(
      args, "reps", 5, 1, 1000, "hot-path timing repetitions (best-of-N)");
  const auto hetero_opt = bench::bounded_int_arg(
      args, "hetero-accesses", 1 << 17, 1, std::int64_t{1} << 40,
      "measured accesses per point of the heterogeneous preset sweeps");
  const std::string json_path = args.get_string(
      "json", "BENCH_perf_simcore.json", "machine-readable output file");
  const std::string task_json = bench::task_json_arg(args);
  const std::string baseline_path = args.get_string(
      "baseline", "",
      "gate against this baseline JSON: exit 1 on sweep_checksum drift, "
      "3 on a >25% hot-path throughput drop alone; \"\" = no gate");
  const bool no_audit = bench::no_audit_arg(args);
  const std::string machine_sel = bench::machine_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!max_mb_opt || !accesses_opt || !reps_opt || !hetero_opt ||
      !threads_opt)
    return 2;
  std::optional<common::Json> baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    std::stringstream text;
    text << in.rdbuf();
    try {
      baseline = common::Json::parse(text.str());
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: cannot read --baseline=%s: %s\n",
                   baseline_path.c_str(), e.what());
      return 2;
    }
  }
  const auto max_mb = static_cast<std::uint64_t>(*max_mb_opt);
  const auto accesses = static_cast<std::uint64_t>(*accesses_opt);
  const int reps = static_cast<int>(*reps_opt);
  const auto hetero_accesses = static_cast<std::uint64_t>(*hetero_opt);
  const std::size_t threads = *threads_opt;

  bench::print_header("Perf", "simulator hot-path and sweep timing");

  const auto machine_spec = bench::load_machine(machine_sel);
  if (!machine_spec) return 2;
  const sim::Machine machine = machine_spec->machine();
  if (!bench::gate_model(machine, no_audit)) return 2;

  const double seq_macc = seq_scan(machine, accesses, reps);
  const double chase_macc = chase(machine, accesses, reps);
  const unsigned host_cpus = std::thread::hardware_concurrency();
  const std::string host_model = cpu_model();

  const auto sizes = fig2_sizes(max_mb);
  common::Timer timer;
  const auto sequential =
      ubench::memory_latency_scan(machine, sizes, 16ull << 20, /*dscr=*/1);
  const double seq_s = timer.seconds();

  sim::SweepRunner runner(threads);
  runner.gate_on_audit(machine.audit());
  if (no_audit) runner.waive_audit();
  timer.restart();
  const auto parallel = ubench::memory_latency_scan(
      machine, sizes, 16ull << 20, /*dscr=*/1, runner);
  const double par_s = timer.seconds();

  bool identical = sequential.size() == parallel.size();
  for (std::size_t i = 0; identical && i < sequential.size(); ++i)
    identical = sequential[i].working_set_bytes ==
                    parallel[i].working_set_bytes &&
                sequential[i].latency_ns == parallel[i].latency_ns;
  const std::uint64_t checksum = sweep_checksum(sequential);

  // The fixed-width scaling curve: the same sweep on 1/2/4-worker
  // pools, every run checked bit-identical against the sequential
  // reference.
  const std::size_t widths[] = {1, 2, 4};
  double width_s[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < 3; ++i)
    width_s[i] =
        timed_sweep(machine, sizes, no_audit, widths[i], sequential,
                    identical);

  // The heterogeneous multi-preset sweeps, serial (1 worker) vs a
  // 4-worker pool; the folded checksums must match bit for bit.
  const HeteroOutcome hetero_serial = run_hetero_sweeps(1, hetero_accesses);
  const HeteroOutcome hetero_par = run_hetero_sweeps(4, hetero_accesses);

  // The analytic fast path, for the same machine the hot paths ran on.
  const predict::Predictor predictor(*machine_spec);
  const double predict_qps = predict_queries_per_s(predictor);
  const char* const construct_presets[] = {"e870", "e880", "e850c"};
  double construct_us[3];
  for (std::size_t i = 0; i < 3; ++i)
    construct_us[i] = probe_construct_us(construct_presets[i]);
  const bool hetero_identical =
      hetero_serial.checksum == hetero_par.checksum;
  const double hetero_speedup =
      hetero_par.wall_s > 0.0 ? hetero_serial.wall_s / hetero_par.wall_s
                              : 1.0;

  // An empty sweep (--max-mb 0) times only overhead; report 1x rather
  // than the ratio of two noise measurements.
  const double speedup = sizes.empty() ? 1.0 : seq_s / par_s;
  auto width_speedup = [&](std::size_t i) {
    return sizes.empty() || width_s[i] <= 0.0 ? 1.0 : seq_s / width_s[i];
  };
  const bool all_identical = identical && hetero_identical;

  common::TextTable t({"Metric", "Value"});
  t.add_row({"host CPUs", std::to_string(host_cpus)});
  t.add_row({"CPU model", host_model});
  t.add_row({"seq scan (dscr 7), Macc/s", common::fmt_num(seq_macc, 1)});
  t.add_row({"random chase (dscr 1), Macc/s", common::fmt_num(chase_macc, 1)});
  t.add_row({"Fig. 2 sweep points", std::to_string(sizes.size())});
  t.add_row({"sweep sequential (s)", common::fmt_num(seq_s, 2)});
  t.add_row({"sweep parallel, " + std::to_string(runner.threads()) +
                 " workers (s)",
             common::fmt_num(par_s, 2)});
  t.add_row({"sweep speedup", common::fmt_num(speedup, 2) + "x"});
  t.add_row({"sweep speedup @1/2/4 workers",
             common::fmt_num(width_speedup(0), 2) + "x / " +
                 common::fmt_num(width_speedup(1), 2) + "x / " +
                 common::fmt_num(width_speedup(2), 2) + "x"});
  t.add_row({"hetero sweep tasks", std::to_string(hetero_par.tasks)});
  t.add_row({"hetero sweeps serial (s)",
             common::fmt_num(hetero_serial.wall_s, 2)});
  t.add_row({"hetero sweeps 4 workers (s)",
             common::fmt_num(hetero_par.wall_s, 2)});
  t.add_row({"hetero sweeps speedup",
             common::fmt_num(hetero_speedup, 2) + "x (" +
                 std::to_string(hetero_par.steals) + " steals)"});
  t.add_row({"analytic predict, Mquery/s",
             common::fmt_num(predict_qps / 1e6, 1)});
  for (std::size_t i = 0; i < 3; ++i)
    t.add_row({std::string("probe construction, ") + construct_presets[i] +
                   " (us)",
               common::fmt_num(construct_us[i], 0)});
  t.add_row({"bit-identical results", all_identical ? "yes" : "NO"});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("sweep checksum: %016llx\n\n",
              static_cast<unsigned long long>(checksum));

  if (!bench::write_task_timeline(hetero_par.timeline_json, task_json))
    return 1;

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"perf_simcore\",\n"
                 "  \"threads\": %zu,\n"
                 "  \"host_cpus\": %u,\n"
                 "  \"cpu_model\": %s,\n"
                 "  \"hotpath_accesses\": %llu,\n"
                 "  \"seq_scan_macc_per_s\": %.3f,\n"
                 "  \"chase_macc_per_s\": %.3f,\n"
                 "  \"predict_queries_per_s\": %.0f,\n"
                 "  \"probe_construct_us\": {\"e870\": %.1f, \"e880\": %.1f, "
                 "\"e850c\": %.1f},\n"
                 "  \"sweep_max_mb\": %llu,\n"
                 "  \"sweep_points\": %zu,\n"
                 "  \"sweep_sequential_s\": %.4f,\n"
                 "  \"sweep_parallel_s\": %.4f,\n"
                 "  \"sweep_speedup\": %.3f,\n"
                 "  \"sweep_speedup_w1\": %.3f,\n"
                 "  \"sweep_speedup_w2\": %.3f,\n"
                 "  \"sweep_speedup_w4\": %.3f,\n"
                 "  \"hetero_tasks\": %zu,\n"
                 "  \"hetero_workers\": 4,\n"
                 "  \"hetero_serial_s\": %.4f,\n"
                 "  \"hetero_parallel_s\": %.4f,\n"
                 "  \"hetero_speedup\": %.3f,\n"
                 "  \"hetero_checksum\": \"%016llx\",\n"
                 "  \"hetero_identical\": %s,\n"
                 "  \"task_engine_steals\": %llu,\n"
                 "  \"sweep_checksum\": \"%016llx\",\n"
                 "  \"bit_identical\": %s\n"
                 "}\n",
                 runner.threads(), host_cpus,
                 common::json_quote(host_model).c_str(),
                 static_cast<unsigned long long>(accesses), seq_macc,
                 chase_macc, predict_qps, construct_us[0], construct_us[1],
                 construct_us[2],
                 static_cast<unsigned long long>(max_mb), sizes.size(), seq_s,
                 par_s, speedup, width_speedup(0), width_speedup(1),
                 width_speedup(2), hetero_par.tasks, hetero_serial.wall_s,
                 hetero_par.wall_s, hetero_speedup,
                 static_cast<unsigned long long>(hetero_par.checksum),
                 hetero_identical ? "true" : "false",
                 static_cast<unsigned long long>(hetero_par.steals),
                 static_cast<unsigned long long>(checksum),
                 all_identical ? "true" : "false");
    std::fclose(f);
    std::printf("JSON written to %s\n", json_path.c_str());
  } else {
    std::printf("WARNING: could not write %s\n", json_path.c_str());
  }
  if (!all_identical) return 1;
  if (!baseline) return 0;
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(checksum));
  try {
    const int verdict = bench::perf_baseline_gate(
        bench::PerfSample{hex, seq_macc, chase_macc}, *baseline);
    if (verdict == 0)
      std::printf("perf baseline: checksum and throughput OK\n");
    return verdict;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: --baseline=%s: %s\n", baseline_path.c_str(),
                 e.what());
    return 2;
  }
}
