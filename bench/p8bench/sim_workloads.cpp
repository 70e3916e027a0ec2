// The two simulator workloads.
//
//  chase-sweep      The Fig. 2 random pointer chase over 16 KB..512 MB
//                   working sets on 64 KB and 16 MB pages, DSCR 1 (prefetch
//                   off), every pass with fresh seeded permutations, fanned
//                   across one SweepRunner.  TLB, cache hierarchy, victim
//                   scan and task engine do the work; the prefetch engine
//                   and in-flight table sit idle.
//  prefetch-replay  Twelve streams (unit +/- stride, strides 2..256 lines,
//                   DCBT walks over seeded block orders with and without
//                   hints) are recorded with TraceWriter during set-up;
//                   every pass replays each file through
//                   TraceReader::next_chunk into a ChunkedReplayer under
//                   DSCR {0,2,5,7} x stride-N {off,on}.  Prefetch engine,
//                   in-flight table and trace decode do the work.
//
// A pass is one full sweep; passes repeat until the window closes, so
// the work rate is a ratio of whole passes.  The unit of latency is one
// point, the kind of simulation a p8serve miss runs.  Both sweeps are
// sized so a run_seconds window completes well over the 1000 points a
// p99 needs.  In a traced run odd
// passes carry spans and counters and even passes run bare, which is how
// the tracing overhead is measured.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "layers.hpp"
#include "predict/machine_predict.hpp"
#include "sim/machine/spec.hpp"
#include "sim/machine/sweep.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "ubench/workloads.hpp"
#include "workloads.hpp"

namespace p8bench {

namespace {

using namespace p8;

/// FNV-1a digests of every result double of the default seed's first two
/// passes (chase-sweep draws new permutations each pass; prefetch-replay
/// replays the same files, so both of its passes pin the same digest).
constexpr std::uint64_t kChasePins[2] = {0x1a0e33b8fb019fb7ull,
                                        0xc8594f1aae09d40bull};
constexpr std::uint64_t kPrefetchPin = 0x75b2f4e81eef3450ull;

/// The e870 machine and a sweep runner gated on its audit.
struct SimStack {
  sim::MachineSpec spec = sim::machine_spec("e870");
  sim::Machine machine = spec.machine();
  sim::SweepRunner runner;

  explicit SimStack(std::size_t workers) : runner(workers) {
    runner.gate_on_audit(machine.audit());
  }
};

// ---------------------------------------------------------------------------
// The pass loop shared by both workloads.

using PointFn = std::function<double(std::size_t pass, std::size_t i,
                                     sim::CounterRegistry* counters,
                                     SpanRecorder* spans,
                                     SpanRecorder::Id parent)>;

struct Window {
  std::vector<std::vector<double>> values;  ///< per pass, per point
  std::vector<double> pass_wall_s;
  std::vector<double> pass_rates;  ///< simulated accesses per second
  std::vector<std::vector<double>> point_s;  ///< per point, per pass: host s
  std::vector<bool> pass_traced;
  std::uint64_t accesses = 0;
  EngineTotals engine;
  sim::CounterRegistry counters;  ///< the first traced pass's events
};

Window run_window(sim::SweepRunner& runner, const Options& options,
                  SpanRecorder* spans,
                  const std::vector<std::uint64_t>& point_accesses,
                  const PointFn& point) {
  Window w;
  const std::size_t n = point_accesses.size();
  w.point_s.resize(n);
  std::uint64_t pass_accesses = 0;
  for (const std::uint64_t a : point_accesses) pass_accesses += a;
  // A traced window needs a traced pass and a bare one after pass 0.
  const std::size_t min_passes = spans != nullptr ? 3 : 1;
  const common::Timer window;
  for (std::size_t pass = 0;
       pass < min_passes || window.seconds() < options.seconds; ++pass) {
    const bool traced = spans != nullptr && pass % 2 == 1;
    SpanRecorder* s = traced ? spans : nullptr;
    std::vector<sim::CounterRegistry> registries(traced ? n : 0);
    std::vector<double> point_s(n, 0.0);
    const common::Timer timer;
    {
      const ScopedSpan pass_span(s, "sweep.pass", SpanRecorder::kRoot, pass);
      w.values.push_back(runner.run(n, [&](std::size_t i) {
        const ScopedSpan point_span(s, "sweep.point", pass_span.id(), i);
        const common::Timer point_timer;
        const double v = point(pass, i, traced ? &registries[i] : nullptr, s,
                               point_span.id());
        point_s[i] = point_timer.seconds();
        return v;
      }));
    }
    const double wall = timer.seconds();
    w.pass_wall_s.push_back(wall);
    w.pass_rates.push_back(static_cast<double>(pass_accesses) / wall);
    w.pass_traced.push_back(traced);
    w.accesses += pass_accesses;
    for (std::size_t i = 0; i < n; ++i) w.point_s[i].push_back(point_s[i]);
    w.engine.add(runner.last_timeline(), wall, runner.threads(),
                 runner.last_steals());
    if (traced && w.counters.empty())
      for (const sim::CounterRegistry& r : registries) w.counters.merge(r);
  }
  return w;
}

/// Traced/untraced pass-wall ratio minus one.  Pass 0 is left out: it
/// is bare and runs on the coldest caches and heap.
double tracing_overhead(const Window& w) {
  std::vector<double> traced, bare;
  for (std::size_t p = 1; p < w.pass_wall_s.size(); ++p)
    (w.pass_traced[p] ? traced : bare).push_back(w.pass_wall_s[p]);
  if (traced.empty() || bare.empty()) return 0.0;
  return median(traced) / median(bare) - 1.0;
}

/// Digest oracles: per pass, against the pin (default seed) or against
/// pass 0 when every pass replays the same inputs.
void check_digests(Outcome& out, const Options& options, Window& w,
                   const std::uint64_t* pins, std::size_t pin_count,
                   bool passes_identical) {
  if (options.perturb) flip_low_bit(w.values[0][0]);
  std::string listed;
  for (std::size_t p = 0; p < w.values.size(); ++p) {
    const std::uint64_t d = digest(w.values[p]);
    if (p > 0) listed += ',';
    listed += hex64(d);
    if (options.seed == kDefaultSeed && p < pin_count)
      out.tally.check(d == pins[p], "pass " + std::to_string(p) +
                                        " digest " + hex64(d) + " != pin " +
                                        hex64(pins[p]));
    if (passes_identical && p > 0)
      out.tally.check(d == digest(w.values[0]),
                      "pass " + std::to_string(p) +
                          " replayed the same files to a different digest");
  }
  out.fact("pass_digests", listed);
}

/// p50 is the grid's median point, each point's time being its median
/// over the passes.  The grid has an even number of points, so a median
/// pooled over every point time would fall exactly between two points'
/// clusters and jump from one to the other with host noise.  p99 pools
/// every point time of every pass.
void add_sim_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                        const Window& w) {
  std::vector<double> typical, all;
  for (const std::vector<double>& times : w.point_s) {
    typical.push_back(median(times));
    all.insert(all.end(), times.begin(), times.end());
  }
  add_end_to_end(out, setup_s, w.pass_rates, median(typical),
                 quantile_or_zero(all, 0.99), all.size());
}

void add_window_facts(Outcome& out, const Window& w, std::size_t points) {
  out.fact("passes", std::to_string(w.values.size()));
  std::string walls;
  for (const double s : w.pass_wall_s) {
    if (!walls.empty()) walls += ',';
    walls += p8::common::json_number(s);
  }
  out.fact("pass_wall_s", walls);
  out.fact("points_per_pass", std::to_string(points));
  out.fact("simulated_accesses", std::to_string(w.accesses));
}

// ---------------------------------------------------------------------------
// chase-sweep

struct ChasePoint {
  std::uint64_t ws = 0;
  std::uint64_t page = 0;
};

/// 16 KB..512 MB on both page sizes: x1.125 steps below 16 MB, where the
/// L1/L2/L3 and ERAT edges sit (twice bench_fig2_latency's density; these
/// points are cheap, and they carry the window past the 1000 points its
/// p99 needs), and octaves above, where the points cost the most.
/// Ascending order: the engine seeds its deques round-robin and each
/// worker pops its newest task first, so the heaviest points start first
/// and the pass tail stays short.
std::vector<ChasePoint> chase_grid() {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t ws = common::kib(16); ws < common::mib(16); ws += ws / 8)
    sizes.push_back(ws);
  for (std::uint64_t ws = common::mib(16); ws <= common::mib(512); ws *= 2)
    sizes.push_back(ws);
  std::vector<ChasePoint> grid;
  for (const std::uint64_t ws : sizes) {
    grid.push_back({ws, common::kib(64)});
    grid.push_back({ws, common::mib(16)});
  }
  return grid;
}

/// Per-point access caps, a quarter of bench_table4_smp's (1 Mi warm,
/// 256 Ki measured).  With ubench's defaults (4 Mi, 1 Mi) the largest
/// points take most of a pass and 1000 points take over a minute; with
/// these the analytic-servable points still agree with the closed-form
/// predictor within bench_predict's bands, which every run checks.
constexpr std::uint64_t kChaseWarm = 1u << 18;
constexpr std::uint64_t kChaseMeasure = 1u << 16;

/// Accesses emit_chase_trace replays for one point (warm laps capped at
/// two, one measured lap).
std::uint64_t chase_accesses(std::uint64_t ws, std::uint64_t line) {
  const std::uint64_t lines = std::max<std::uint64_t>(1, ws / line);
  return std::min(kChaseWarm, 2 * lines) +
         std::max<std::uint64_t>(1, std::min(kChaseMeasure, lines));
}

ubench::ChaseOptions chase_options(const ChasePoint& p, std::uint64_t seed) {
  ubench::ChaseOptions o;
  o.working_set_bytes = p.ws;
  o.page_bytes = p.page;
  o.dscr = 1;
  o.warm_accesses = kChaseWarm;
  o.measure_accesses = kChaseMeasure;
  o.seed = seed;
  return o;
}

struct ChaseState {
  SimStack stack;
  predict::QueryRouter router;
  std::vector<ChasePoint> grid = chase_grid();
  std::vector<std::uint64_t> accesses;

  explicit ChaseState(std::size_t workers)
      : stack(workers), router(stack.spec, stack.runner.pool()) {
    const std::uint64_t line = stack.spec.system.processor.cache_line_bytes;
    for (const ChasePoint& p : grid) accesses.push_back(chase_accesses(p.ws, line));
    // Warm-up: the points up to 256 KiB once, so the pool's threads, the
    // code and the allocator are warm before the first timed pass.
    std::size_t small = 0;
    while (small < grid.size() && grid[small].ws <= common::kib(256)) ++small;
    stack.runner.run(small, [&](std::size_t i) {
      return ubench::chase_latency_ns(stack.machine, chase_options(grid[i], i));
    });
  }
};

predict::Query chase_query(const ChasePoint& p) {
  predict::Query q;
  q.kind = predict::Query::Kind::kChaseLatency;
  q.footprint_bytes = p.ws;
  q.page_bytes = p.page;
  q.dscr = 1;
  return q;
}

/// bench_predict's bands: 4% where the closed form approximates the page
/// walk and deep occupancy (L4, DRAM), 2% on the on-chip plateaus.
double predictor_tolerance(const predict::Predictor& p, std::uint64_t ws) {
  const sim::ServiceLevel level = p.plateau_level(ws);
  return level == sim::ServiceLevel::kL4 || level == sim::ServiceLevel::kDram
             ? 0.04
             : 0.02;
}

}  // namespace

Outcome run_chase_sweep(const Options& options, SpanRecorder* spans) {
  Outcome out;
  std::vector<double> setup_s;
  const std::unique_ptr<ChaseState> state = set_up(
      [&] { return std::make_unique<ChaseState>(options.threads); }, setup_s);
  const std::vector<ChasePoint>& grid = state->grid;
  const sim::Machine& machine = state->stack.machine;

  Window w = run_window(
      state->stack.runner, options, spans, state->accesses,
      [&](std::size_t pass, std::size_t i, sim::CounterRegistry* counters,
          SpanRecorder* s, SpanRecorder::Id parent) {
        ubench::ChaseOptions o = chase_options(grid[i], mix(options.seed, pass, i));
        o.counters = counters;
        const ScopedSpan span(s, "ubench.chase_latency_ns", parent, i);
        return ubench::chase_latency_ns(machine, o);
      });

  // Oracles: pinned digests for the default seed; for any seed, every
  // analytic-servable point against the closed-form predictor.
  check_digests(out, options, w, kChasePins, 2, /*passes_identical=*/false);
  const predict::Predictor& predictor = state->router.predictor();

  for (std::size_t p = 0; p < w.values.size(); ++p)
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!state->router.analytic_servable(chase_query(grid[i]))) continue;

      const double predicted =
          predictor.chase_latency_ns(grid[i].ws, grid[i].page);
      const double tol = predictor_tolerance(predictor, grid[i].ws);
      const double sim = w.values[p][i];
      out.tally.check(std::abs(predicted / sim - 1.0) <= tol,
                      "pass " + std::to_string(p) + " ws " +
                          std::to_string(grid[i].ws) + " page " +
                          std::to_string(grid[i].page) + ": simulated " +
                          std::to_string(sim) + " ns vs predicted " +
                          std::to_string(predicted) + " ns (tol " +
                          std::to_string(tol) + ")");
    }
  add_window_facts(out, w, grid.size());
  add_sim_end_to_end(out, setup_s, w);

  if (spans != nullptr) {
    // Isolated-layer replay on a seeded sample: two points from each
    // third of the grid, so small, L3-sized and DRAM-sized sets all
    // contribute.
    std::vector<std::size_t> sample;
    common::Xoshiro256 rng(mix(options.seed, 0x1a7e55, 0));
    const std::size_t third = grid.size() / 3;
    for (std::size_t t = 0; t < 3; ++t)
      for (int k = 0; k < 2; ++k)
        sample.push_back(t * third + rng.bounded(third));
    const std::uint64_t line = state->stack.spec.system.processor.cache_line_bytes;
    const std::vector<LayerSample> samples = state->stack.runner.run(
        sample.size(), [&](std::size_t k) {
          const std::size_t i = sample[k];
          const ScopedSpan span(spans, "layers.point", SpanRecorder::kRoot, i);
          CapturedStream stream;
          CaptureSink sink(stream);
          ubench::emit_chase_trace(line, chase_options(grid[i], mix(options.seed, 0, i)),
                                   sink);
          sim::ProbeOptions po;
          po.page_bytes = grid[i].page;
          po.dscr = 1;
          return replay_layers(machine, po, stream, spans, span.id(), i, nullptr);
        });
    LayerTotals totals;
    for (const LayerSample& s : samples) totals.add(s);
    add_sim_layer_metrics(out, totals, w.counters);
    add_engine_metrics(out, w.engine);

    // The predictor's analytic tier on this sweep's own points.
    std::vector<ChasePoint> analytic;
    for (const ChasePoint& p : grid)
      if (state->router.analytic_servable(chase_query(p))) analytic.push_back(p);
    set_layer(out, "predict.analytic_share",
              static_cast<double>(analytic.size()) / static_cast<double>(grid.size()),
              grid.size());
    if (!analytic.empty()) {
      constexpr int kReps = 20000;
      double sink = 0.0;
      const common::Timer t;
      {
        const ScopedSpan span(spans, "predict.router.answer", SpanRecorder::kRoot, 0);
        for (int r = 0; r < kReps; ++r)
          for (const ChasePoint& p : analytic)
            sink += state->router.answer(chase_query(p)).value;
      }
      const double n = static_cast<double>(kReps) * static_cast<double>(analytic.size());
      set_layer(out, "predict.analytic.ns_per_query",
                sink > 0.0 ? t.seconds() * 1e9 / n : 0.0, static_cast<std::size_t>(n));
    }
    set_layer(out, "trace.overhead_ratio", tracing_overhead(w), w.pass_wall_s.size());
  }
  return out;
}

// ---------------------------------------------------------------------------
// prefetch-replay

namespace {

/// Accesses per recorded stream: a point takes tens of milliseconds, so a
/// window completes well over the 1000 points its p99 needs.
constexpr std::uint64_t kStreamAccesses = 1u << 17;

struct StreamFile {
  std::string name;
  std::string path;
  std::uint64_t records = 0;
  std::uint64_t accesses = 0;
  std::uint64_t bytes = 0;
  bool unit_stride = false;  ///< analytic-servable as a stream-latency query
};

struct ReplayConfig {
  int dscr = 0;
  bool stride_n = false;
};

const std::vector<ReplayConfig>& replay_configs() {
  static const std::vector<ReplayConfig> kConfigs = [] {
    std::vector<ReplayConfig> v;
    for (const int dscr : {0, 2, 5, 7})
      for (const bool stride_n : {false, true}) v.push_back({dscr, stride_n});
    return v;
  }();
  return kConfigs;
}

/// One stream's generator.  Strides and block sizes are fixed, so every
/// seed replays the same amount of simulator work; the seed draws the
/// DCBT walks' block orders.
struct StreamSpec {
  std::string name;
  std::function<void(std::uint64_t line, trace::TraceSink&)> emit;
  bool unit_stride = false;
};

std::vector<StreamSpec> stream_specs(std::uint64_t seed) {
  common::Xoshiro256 rng(mix(seed, 0x5eed, 1));
  std::vector<StreamSpec> v;
  v.push_back({"unit+", [](std::uint64_t l, trace::TraceSink& s) {
                 ubench::StrideOptions o;
                 o.stride_lines = 1;
                 o.accesses = kStreamAccesses;
                 ubench::emit_stride_trace(l, o, s);
               }, true});
  v.push_back({"unit-", [](std::uint64_t l, trace::TraceSink& s) {
                 ubench::ChaseOptions o;
                 o.pattern = ubench::ChasePattern::kBackwardStride;
                 o.stride_lines = 1;
                 o.working_set_bytes = kStreamAccesses / 3 * l;
                 ubench::emit_chase_trace(l, o, s);
               }});
  for (const std::uint64_t stride : {2, 4, 8, 16, 64, 256}) {
    v.push_back({"stride" + std::to_string(stride),
                 [stride](std::uint64_t l, trace::TraceSink& s) {
                   ubench::StrideOptions o;
                   o.stride_lines = stride;
                   o.accesses = kStreamAccesses;
                   ubench::emit_stride_trace(l, o, s);
                 }});
  }
  // Fig. 8's 2 KB blocks and a 4x larger size, with and without hints.
  for (const std::uint64_t block_lines : {16, 64})
    for (const bool hints : {true, false}) {
      const std::uint64_t order_seed = rng();
      v.push_back({std::string("dcbt") + (hints ? "-hint" : "") + "-" +
                       std::to_string(block_lines) + "lines",
                   [=](std::uint64_t l, trace::TraceSink& s) {
                     ubench::DcbtOptions o;
                     o.block_bytes = block_lines * l;
                     o.total_bytes = kStreamAccesses * l;
                     o.use_dcbt = hints;
                     o.seed = order_seed;
                     ubench::emit_dcbt_trace(l, o, s);
                   }});
    }
  return v;
}

struct PrefetchState {
  SimStack stack;
  std::vector<StreamFile> files;

  PrefetchState(const Options& options, SpanRecorder* spans)
      : stack(options.threads) {
    const std::uint64_t line = stack.spec.system.processor.cache_line_bytes;
    const std::vector<StreamSpec> specs = stream_specs(options.seed);
    for (std::size_t k = 0; k < specs.size(); ++k) {
      CapturedStream stream;
      CaptureSink capture(stream);
      specs[k].emit(line, capture);
      StreamFile f;
      f.name = specs[k].name;
      f.unit_stride = specs[k].unit_stride;
      f.path = options.out_dir + "/prefetch-replay-" +
               std::to_string(::getpid()) + "-" + std::to_string(k) + ".p8t";
      const ScopedSpan span(spans, "trace.writer.encode", SpanRecorder::kRoot, k);
      trace::TraceWriter writer(f.path);
      replay_into(stream, writer);
      writer.finish();
      f.records = writer.records();
      f.accesses = writer.accesses();
      f.bytes = writer.bytes();
      files.push_back(f);
    }
  }

  ~PrefetchState() {
    std::error_code ec;
    for (const StreamFile& f : files) std::filesystem::remove(f.path, ec);
  }
  PrefetchState(const PrefetchState&) = delete;
  PrefetchState& operator=(const PrefetchState&) = delete;
};

sim::ProbeOptions replay_probe_options(const ReplayConfig& c) {
  sim::ProbeOptions po;
  po.page_bytes = common::mib(16);
  po.dscr = c.dscr;
  po.stride_n = c.stride_n;
  return po;
}

/// Replays one file into a fresh probe; returns the measured window's
/// ns per access (from the stream's measure mark to the end).
double replay_file(const sim::Machine& machine, const StreamFile& file,
                   const ReplayConfig& config, sim::CounterRegistry* counters,
                   SpanRecorder* spans, SpanRecorder::Id parent,
                   std::uint64_t request) {
  trace::TraceReader reader(file.path);
  sim::ProbeOptions po = replay_probe_options(config);
  po.counters = counters;
  sim::LatencyProbe probe = machine.probe(po);
  trace::ChunkedReplayer sink(probe, reader.chunk_records());
  std::vector<trace::TraceRecord> chunk;
  for (;;) {
    bool more = false;
    {
      const ScopedSpan span(spans, "trace.reader.next_chunk", parent, request);
      more = reader.next_chunk(chunk);
    }
    if (!more) break;
    const ScopedSpan span(spans, "trace.replay.chunk", parent, request);
    for (const trace::TraceRecord& r : chunk) forward(r, sink);
    sink.flush();
  }
  const auto mark = sink.find_mark(ubench::kMarkMeasureStart);
  const double from_ns = mark ? mark->now_ns : 0.0;
  const std::uint64_t from = mark ? mark->accesses : 0;
  return (probe.now_ns() - from_ns) /
         static_cast<double>(std::max<std::uint64_t>(1, sink.stats().accesses - from));
}

}  // namespace

Outcome run_prefetch_replay(const Options& options, SpanRecorder* spans) {
  Outcome out;
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  std::vector<double> setup_s;
  const std::unique_ptr<PrefetchState> state = set_up(
      [&] { return std::make_unique<PrefetchState>(options, spans); }, setup_s);
  const std::vector<StreamFile>& files = state->files;
  const std::vector<ReplayConfig>& configs = replay_configs();
  const sim::Machine& machine = state->stack.machine;
  const std::size_t points = files.size() * configs.size();
  std::vector<std::uint64_t> accesses(points);
  for (std::size_t i = 0; i < points; ++i)
    accesses[i] = files[i / configs.size()].accesses;

  Window w = run_window(
      state->stack.runner, options, spans, accesses,
      [&](std::size_t, std::size_t i, sim::CounterRegistry* counters,
          SpanRecorder* s, SpanRecorder::Id parent) {
        return replay_file(machine, files[i / configs.size()],
                           configs[i % configs.size()], counters, s, parent, i);
      });

  // Oracles: every pass replays the same files, so every pass must
  // reproduce pass 0 bit for bit (and the pin, for the default seed);
  // the unit-stride stream is analytic-servable, so its steady state
  // must match the predictor within bench_predict's 5% band.
  const std::uint64_t pins[2] = {kPrefetchPin, kPrefetchPin};
  check_digests(out, options, w, pins, 2, /*passes_identical=*/true);
  const predict::Predictor predictor(state->stack.spec);
  for (std::size_t i = 0; i < points; ++i) {
    if (!files[i / configs.size()].unit_stride) continue;
    const ReplayConfig& c = configs[i % configs.size()];
    const double predicted = predictor.stream_latency_ns(c.dscr);
    const double sim = w.values[0][i];
    out.tally.check(std::abs(predicted / sim - 1.0) <= 0.05,
                    "unit stride dscr " + std::to_string(c.dscr) +
                        ": simulated " + std::to_string(sim) +
                        " ns vs predicted " + std::to_string(predicted) + " ns");
  }
  std::uint64_t file_bytes = 0, file_accesses = 0, file_records = 0;
  for (const StreamFile& f : files) {
    file_bytes += f.bytes;
    file_accesses += f.accesses;
    file_records += f.records;
  }
  add_window_facts(out, w, points);
  out.fact("streams", std::to_string(files.size()));
  add_sim_end_to_end(out, setup_s, w);

  if (spans != nullptr) {
    std::vector<std::size_t> sample;
    common::Xoshiro256 rng(mix(options.seed, 0x1a7e55, 1));
    for (int k = 0; k < 6; ++k) sample.push_back(rng.bounded(points));
    const std::vector<LayerSample> samples = state->stack.runner.run(
        sample.size(), [&](std::size_t k) {
          const std::size_t i = sample[k];
          const ScopedSpan span(spans, "layers.point", SpanRecorder::kRoot, i);
          CapturedStream stream;
          CaptureSink sink(stream);
          {
            trace::TraceReader reader(files[i / configs.size()].path);
            std::vector<trace::TraceRecord> chunk;
            while (reader.next_chunk(chunk))
              for (const trace::TraceRecord& r : chunk) forward(r, sink);
          }
          return replay_layers(machine,
                               replay_probe_options(configs[i % configs.size()]),
                               stream, spans, span.id(), i, nullptr);
        });
    LayerTotals totals;
    for (const LayerSample& s : samples) totals.add(s);
    add_sim_layer_metrics(out, totals, w.counters);
    add_engine_metrics(out, w.engine);

    // Trace layer: decode from the traced passes' next_chunk spans,
    // encode from every set-up's writer spans.
    const auto layer = layer_totals(spans->spans());
    std::size_t traced_passes = 0;
    for (const bool t : w.pass_traced) traced_passes += t ? 1 : 0;
    const double decoded = static_cast<double>(traced_passes) *
                           static_cast<double>(file_records * configs.size());
    const auto total_of = [&](const char* name) {
      const auto it = layer.find(name);
      return it == layer.end() ? 0.0 : it->second.total_s;
    };
    set_layer(out, "trace.decode.ns_per_record",
              decoded > 0.0 ? total_of("trace.reader.next_chunk") * 1e9 / decoded : 0.0,
              static_cast<std::size_t>(decoded));
    const double encoded =
        static_cast<double>(setup_s.size()) * static_cast<double>(file_records);
    set_layer(out, "trace.encode.ns_per_record",
              total_of("trace.writer.encode") * 1e9 / encoded,
              static_cast<std::size_t>(encoded));
    set_layer(out, "trace.bytes_per_access",
              static_cast<double>(file_bytes) / static_cast<double>(file_accesses),
              file_accesses);
    set_layer(out, "trace.overhead_ratio", tracing_overhead(w), w.pass_wall_s.size());
  }
  return out;
}

}  // namespace p8bench
