#include "ubench/workloads.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/replay.hpp"

namespace p8::ubench {

namespace {

/// Sattolo's algorithm: a uniformly random single-cycle permutation of
/// [0, n) — the standard way to build a pointer-chase chain in which
/// every element is visited exactly once per lap.  Returned as the
/// visiting order: the chase steps from order[k] to order[k + 1]
/// (cyclically).
///
/// The swaps touch random slots of a chain that outgrows the host's
/// caches, so the loop is software-pipelined: each swap partner is
/// drawn kAhead steps early (the RNG calls keep their order, so the
/// permutation is unchanged) and its slot prefetched, letting the host
/// cache misses overlap instead of serializing.
///
/// Element 0 sits in slot 0 until the first step whose partner is
/// slot 0 moves it into that step's slot, which no later step touches
/// (the last step's partner is always slot 0, so it does move when
/// n >= 2).  That slot is the chain's start, kept without a search.
ChaseChain sattolo_chain(std::uint64_t n, std::uint64_t seed) {
  P8_REQUIRE(n >= 1, "empty permutation");
  ChaseChain chain;
  std::vector<std::uint32_t>& order = chain.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0u);
  common::Xoshiro256 rng(seed);
  constexpr std::uint64_t kAhead = 16;  // power of two: ring index is a mask
  std::uint64_t partner[kAhead] = {};
  // Step s swaps slot n - 1 - s with a partner in [0, n - 1 - s).
  const std::uint64_t steps = n - 1;
  const auto draw = [&](std::uint64_t s) {
    const std::uint64_t j = rng.bounded(n - 1 - s);
    partner[s & (kAhead - 1)] = j;
    __builtin_prefetch(&order[j], /*rw=*/1);
  };
  for (std::uint64_t s = 0; s < std::min(kAhead, steps); ++s) draw(s);
  for (std::uint64_t s = 0; s < steps; ++s) {
    const std::uint64_t j = partner[s & (kAhead - 1)];
    if (s + kAhead < steps) draw(s + kAhead);
    std::swap(order[n - 1 - s], order[j]);
    if (j == 0 && order[n - 1 - s] == 0) chain.start = n - 1 - s;
  }
  return chain;
}

/// ns per access over the window from the measure mark to the end of
/// the (flushed) replay: (clock advance) / (accesses past the mark).
double window_latency_ns(const sim::LatencyProbe& probe,
                         const trace::ChunkedReplayer& sink) {
  const auto mark = sink.find_mark(kMarkMeasureStart);
  P8_REQUIRE(mark.has_value(), "trace carries no measure mark");
  const std::uint64_t measured = sink.stats().accesses - mark->accesses;
  P8_REQUIRE(measured >= 1, "empty measurement window");
  return (probe.now_ns() - mark->now_ns) / static_cast<double>(measured);
}

}  // namespace

ChaseChain chase_chain(std::uint64_t lines, const ChaseOptions& options) {
  // order[] holds uint32 line indices: past 2^32 lines the indices
  // would wrap and the chain would no longer be one cycle over every
  // line.
  P8_REQUIRE(lines <= (std::uint64_t{1} << 32),
             "chase working set exceeds 2^32 cache lines");
  if (options.pattern == ChasePattern::kRandom)
    return sattolo_chain(lines, options.seed);
  // lmbench's strided chain: walk every stride-th line, then the next
  // offset, until every line is covered exactly once per lap.  Line 0
  // comes first, or last once a backward chain is reversed.
  P8_REQUIRE(options.stride_lines >= 1, "stride must be positive");
  ChaseChain chain;
  chain.order.reserve(lines);
  for (std::uint64_t offset = 0;
       offset < options.stride_lines && offset < lines; ++offset)
    for (std::uint64_t i = offset; i < lines; i += options.stride_lines)
      chain.order.push_back(static_cast<std::uint32_t>(i));
  if (options.pattern == ChasePattern::kBackwardStride) {
    std::reverse(chain.order.begin(), chain.order.end());
    chain.start = lines - 1;
  }
  return chain;
}

void emit_chase_trace(std::uint64_t line_bytes, const ChaseOptions& options,
                      trace::TraceSink& sink) {
  const std::uint64_t lines = std::max<std::uint64_t>(
      1, options.working_set_bytes / line_bytes);
  const ChaseChain chain = chase_chain(lines, options);
  const std::vector<std::uint32_t>& order = chain.order;

  // Warm: enough laps to reach the steady-state cache distribution.
  const std::uint64_t warm = std::min<std::uint64_t>(
      options.warm_accesses, 2 * lines);
  const std::uint64_t measure =
      std::max<std::uint64_t>(1, std::min(options.measure_accesses, lines));

  // The chase starts at line 0 and walks the order cyclically.
  std::uint64_t k = chain.start;
  const auto walk = [&](std::uint64_t accesses) {
    for (std::uint64_t i = 0; i < accesses; ++i) {
      sink.access(order[k] * line_bytes);
      if (++k == lines) k = 0;
    }
  };
  walk(warm);
  sink.mark(kMarkMeasureStart);
  walk(measure);
}

double chase_latency_ns(const sim::Machine& machine,
                        const ChaseOptions& options) {
  const std::uint64_t line = machine.spec().processor.cache_line_bytes;

  sim::ProbeOptions probe_options;
  probe_options.page_bytes = options.page_bytes;
  probe_options.dscr = options.dscr;
  probe_options.stride_n = options.stride_n;
  probe_options.home_chip = options.home_chip;
  probe_options.consumer_chip = options.consumer_chip;
  probe_options.counters = options.counters;
  sim::LatencyProbe probe = machine.probe(probe_options);

  // The stream flows from the generator through a TraceSink, chunked
  // into access_batch; it is never materialized whole.
  trace::ChunkedReplayer sink(probe);
  emit_chase_trace(line, options, sink);
  sink.flush();
  return window_latency_ns(probe, sink);
}

std::vector<LatencyPoint> memory_latency_scan(
    const sim::Machine& machine, const std::vector<std::uint64_t>& sizes,
    std::uint64_t page_bytes, int dscr, sim::CounterRegistry* counters) {
  std::vector<LatencyPoint> out;
  out.reserve(sizes.size());
  for (const std::uint64_t ws : sizes) {
    ChaseOptions options;
    options.working_set_bytes = ws;
    options.page_bytes = page_bytes;
    options.dscr = dscr;
    options.counters = counters;
    out.push_back({ws, chase_latency_ns(machine, options)});
  }
  return out;
}

std::vector<LatencyPoint> memory_latency_scan(
    const sim::Machine& machine, const std::vector<std::uint64_t>& sizes,
    std::uint64_t page_bytes, int dscr, sim::SweepRunner& runner,
    sim::CounterRegistry* counters) {
  return runner.run_counted(
      sizes.size(), counters,
      [&](std::size_t i, sim::CounterRegistry* registry) {
        ChaseOptions options;
        options.working_set_bytes = sizes[i];
        options.page_bytes = page_bytes;
        options.dscr = dscr;
        options.counters = registry;
        return LatencyPoint{sizes[i], chase_latency_ns(machine, options)};
      });
}

void emit_stride_trace(std::uint64_t line_bytes, const StrideOptions& options,
                       trace::TraceSink& sink) {
  P8_REQUIRE(options.stride_lines >= 1, "stride must be positive");
  P8_REQUIRE(options.accesses >= 1, "empty stride scan");
  const std::uint64_t step = options.stride_lines * line_bytes;
  // Skip the ramp-up so we report the steady state, like the figure.
  const std::uint64_t skip = options.accesses / 10;
  std::uint64_t addr = 0;
  for (std::uint64_t i = 0; i < options.accesses; ++i) {
    if (i == skip) sink.mark(kMarkMeasureStart);
    sink.access(addr);
    addr += step;
  }
}

double stride_latency_ns(const sim::Machine& machine,
                         const StrideOptions& options) {
  const std::uint64_t line = machine.spec().processor.cache_line_bytes;

  sim::ProbeOptions probe_options;
  probe_options.page_bytes = options.page_bytes;
  probe_options.dscr = options.dscr;
  probe_options.stride_n = options.stride_n;
  probe_options.consumer_chip = options.consumer_chip;
  probe_options.home_chip = options.home_chip;
  probe_options.counters = options.counters;
  sim::LatencyProbe probe = machine.probe(probe_options);

  trace::ChunkedReplayer sink(probe);
  emit_stride_trace(line, options, sink);
  sink.flush();
  return window_latency_ns(probe, sink);
}

void emit_dcbt_trace(std::uint64_t line_bytes, const DcbtOptions& options,
                     trace::TraceSink& sink) {
  P8_REQUIRE(options.block_bytes >= line_bytes, "block smaller than a line");
  const std::uint64_t lines_per_block = options.block_bytes / line_bytes;
  const std::uint64_t blocks =
      std::max<std::uint64_t>(1, options.total_bytes / options.block_bytes);

  // Random visiting order over blocks.
  std::vector<std::uint64_t> order(blocks);
  std::iota(order.begin(), order.end(), 0ull);
  common::Xoshiro256 rng(options.seed);
  for (std::uint64_t i = blocks - 1; i >= 1; --i) {
    const std::uint64_t j = rng.bounded(i + 1);
    std::swap(order[i], order[j]);
  }

  sink.mark(kMarkMeasureStart);
  for (const std::uint64_t b : order) {
    const std::uint64_t base = b * options.block_bytes;
    if (options.use_dcbt)
      sink.dcbt_hint(base, options.block_bytes, /*descending=*/false);
    for (std::uint64_t l = 0; l < lines_per_block; ++l)
      sink.access(base + l * line_bytes);
    if (options.use_dcbt)
      sink.dcbt_stop(base + (lines_per_block - 1) * line_bytes);
  }
}

double dcbt_block_bandwidth_gbs(const sim::Machine& machine,
                                const DcbtOptions& options) {
  const std::uint64_t line = machine.spec().processor.cache_line_bytes;
  const std::uint64_t blocks =
      std::max<std::uint64_t>(1, options.total_bytes / options.block_bytes);

  sim::ProbeOptions probe_options;
  probe_options.page_bytes = options.page_bytes;
  probe_options.dscr = options.dscr;
  probe_options.counters = options.counters;
  sim::LatencyProbe probe = machine.probe(probe_options);

  trace::ChunkedReplayer sink(probe);
  emit_dcbt_trace(line, options, sink);
  sink.flush();
  const double t0 = sink.find_mark(kMarkMeasureStart)->now_ns;
  const std::uint64_t bytes = blocks * options.block_bytes;
  const double elapsed_ns = probe.now_ns() - t0;
  return static_cast<double>(bytes) / elapsed_ns;  // bytes/ns == GB/s
}

namespace {

std::uint64_t line_bytes_of(const sim::Machine& machine) {
  return machine.spec().processor.cache_line_bytes;
}

std::vector<TraceWorkload> build_trace_workloads() {
  std::vector<TraceWorkload> v;

  {
    TraceWorkload w;
    w.name = "chase";
    w.description =
        "lmbench random pointer chase, 16 MB working set, prefetch off";
    ChaseOptions o;
    o.working_set_bytes = 16ull << 20;
    w.probe_options.page_bytes = o.page_bytes;
    w.probe_options.dscr = o.dscr;
    w.emit = [o](const sim::Machine& m, std::uint64_t hint,
                 trace::TraceSink& s) {
      ChaseOptions c = o;
      if (hint != 0) c.measure_accesses = hint;
      emit_chase_trace(line_bytes_of(m), c, s);
    };
    v.push_back(std::move(w));
  }
  {
    TraceWorkload w;
    w.name = "seq-scan";
    w.description = "unit-stride scan on 16 MB pages, default prefetch depth";
    StrideOptions o;
    o.stride_lines = 1;
    o.accesses = 1u << 20;
    w.probe_options.page_bytes = o.page_bytes;
    w.probe_options.dscr = o.dscr;
    w.emit = [o](const sim::Machine& m, std::uint64_t hint,
                 trace::TraceSink& s) {
      StrideOptions c = o;
      if (hint != 0) c.accesses = hint;
      emit_stride_trace(line_bytes_of(m), c, s);
    };
    v.push_back(std::move(w));
  }
  {
    TraceWorkload w;
    w.name = "stride";
    w.description = "stride-256 scan on 16 MB pages (Fig. 7 setup)";
    StrideOptions o;
    w.probe_options.page_bytes = o.page_bytes;
    w.probe_options.dscr = o.dscr;
    w.emit = [o](const sim::Machine& m, std::uint64_t hint,
                 trace::TraceSink& s) {
      StrideOptions c = o;
      if (hint != 0) c.accesses = hint;
      emit_stride_trace(line_bytes_of(m), c, s);
    };
    v.push_back(std::move(w));
  }
  {
    TraceWorkload w;
    w.name = "dcbt";
    w.description = "random 2 KB block walk, no stream hints (Fig. 8)";
    DcbtOptions o;
    w.probe_options.page_bytes = o.page_bytes;
    w.probe_options.dscr = o.dscr;
    w.emit = [o](const sim::Machine& m, std::uint64_t hint,
                 trace::TraceSink& s) {
      DcbtOptions c = o;
      if (hint != 0) c.total_bytes = hint * line_bytes_of(m);
      emit_dcbt_trace(line_bytes_of(m), c, s);
    };
    v.push_back(std::move(w));
  }
  {
    TraceWorkload w;
    w.name = "dcbt-hint";
    w.description = "random 2 KB block walk with DCBT stream hints (Fig. 8)";
    DcbtOptions o;
    o.use_dcbt = true;
    w.probe_options.page_bytes = o.page_bytes;
    w.probe_options.dscr = o.dscr;
    w.emit = [o](const sim::Machine& m, std::uint64_t hint,
                 trace::TraceSink& s) {
      DcbtOptions c = o;
      if (hint != 0) c.total_bytes = hint * line_bytes_of(m);
      emit_dcbt_trace(line_bytes_of(m), c, s);
    };
    v.push_back(std::move(w));
  }
  return v;
}

}  // namespace

const std::vector<TraceWorkload>& trace_workloads() {
  static const std::vector<TraceWorkload> registry = build_trace_workloads();
  return registry;
}

const TraceWorkload* find_trace_workload(const std::string& name) {
  for (const TraceWorkload& w : trace_workloads())
    if (w.name == name) return &w;
  return nullptr;
}

}  // namespace p8::ubench
