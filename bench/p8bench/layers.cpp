#include "layers.hpp"

#include <algorithm>
#include <span>

#include "common/timer.hpp"
#include "sim/cache/hierarchy.hpp"
#include "sim/cache/tlb.hpp"
#include "sim/prefetch/engine.hpp"

namespace p8bench {

using p8::trace::TraceOp;
using p8::trace::TraceRecord;

void CaptureSink::dcbt_hint(std::uint64_t start, std::uint64_t length_bytes,
                            bool descending) {
  TraceRecord r;
  r.op = TraceOp::kDcbtHint;
  r.addr = start;
  r.length_bytes = length_bytes;
  r.descending = descending;
  out_.events.push_back({out_.addrs.size(), r});
}

void CaptureSink::dcbt_stop(std::uint64_t addr) {
  TraceRecord r;
  r.op = TraceOp::kDcbtStop;
  r.addr = addr;
  out_.events.push_back({out_.addrs.size(), r});
}

void CaptureSink::mark(std::uint64_t id) {
  TraceRecord r;
  r.op = TraceOp::kMark;
  r.mark = id;
  out_.events.push_back({out_.addrs.size(), r});
}

void forward(const TraceRecord& r, p8::trace::TraceSink& sink) {
  switch (r.op) {
    case TraceOp::kAccess: sink.access(r.addr); break;
    case TraceOp::kDcbtHint: sink.dcbt_hint(r.addr, r.length_bytes, r.descending); break;
    case TraceOp::kDcbtStop: sink.dcbt_stop(r.addr); break;
    case TraceOp::kMark: sink.mark(r.mark); break;
  }
}

namespace {

/// Calls `on_accesses(span)` for each run of accesses between records
/// (in chunks of at most the trace format's chunk size) and
/// `on_event(record)` for each record, in stream order.
template <typename Accesses, typename Event>
void walk_stream(const CapturedStream& stream, Accesses&& on_accesses,
                 Event&& on_event) {
  constexpr std::size_t kChunk = p8::trace::kDefaultChunkRecords;
  std::size_t at = 0;
  const auto run_to = [&](std::size_t end) {
    while (at < end) {
      const std::size_t n = std::min(kChunk, end - at);
      on_accesses(std::span<const std::uint64_t>(stream.addrs.data() + at, n));
      at += n;
    }
  };
  for (const CapturedStream::Event& e : stream.events) {
    run_to(e.before);
    on_event(e.record);
  }
  run_to(stream.addrs.size());
}

}  // namespace

void replay_into(const CapturedStream& stream, p8::trace::TraceSink& sink) {
  walk_stream(
      stream,
      [&](std::span<const std::uint64_t> chunk) {
        for (const std::uint64_t addr : chunk) sink.access(addr);
      },
      [&](const TraceRecord& r) { forward(r, sink); });
}

namespace {

void replay_probe(p8::sim::LatencyProbe& probe, const CapturedStream& stream,
                  p8::sim::BatchStats& stats) {
  walk_stream(
      stream,
      [&](std::span<const std::uint64_t> chunk) {
        probe.access_batch(chunk, stats);
      },
      [&](const TraceRecord& r) {
        if (r.op == TraceOp::kDcbtHint)
          probe.dcbt_hint(r.addr, r.length_bytes, r.descending);
        else if (r.op == TraceOp::kDcbtStop)
          probe.dcbt_stop(r.addr);
      });
}

/// Times `body` under a span named `name`; returns seconds.
template <typename Body>
double timed(SpanRecorder* spans, const char* name, SpanRecorder::Id parent,
             std::uint64_t request, Body&& body) {
  const ScopedSpan span(spans, name, parent, request);
  const p8::common::Timer timer;
  body();
  return timer.seconds();
}

}  // namespace

LayerSample replay_layers(const p8::sim::Machine& machine,
                          const p8::sim::ProbeOptions& options,
                          const CapturedStream& stream, SpanRecorder* spans,
                          SpanRecorder::Id parent, std::uint64_t request,
                          p8::sim::CounterRegistry* counters) {
  LayerSample s;
  s.accesses = stream.addrs.size();

  p8::sim::ProbeOptions plain = options;
  plain.counters = nullptr;
  p8::sim::LatencyProbe probe = machine.probe(plain);
  const p8::sim::ProbeConfig config = probe.config();
  const std::uint64_t line_mask = ~(config.hierarchy.line_bytes - 1);

  p8::sim::BatchStats stats;
  s.probe_s = timed(spans, "sim.probe.access_batch", parent, request,
                    [&] { replay_probe(probe, stream, stats); });
  s.l1_fast_hits = stats.l1_fast_hits;

  if (counters != nullptr) {
    p8::sim::ProbeOptions counted = options;
    counted.counters = counters;
    p8::sim::LatencyProbe counting = machine.probe(counted);
    p8::sim::BatchStats ignored;
    replay_probe(counting, stream, ignored);
  }

  p8::sim::Tlb tlb(config.tlb);
  s.tlb_s = timed(spans, "sim.tlb.translate", parent, request, [&] {
    for (const std::uint64_t addr : stream.addrs)
      if (!tlb.last_page_matches(addr)) tlb.translate(addr);
  });

  // The batched probe hints the host about set arrays a few accesses
  // ahead; the replay does the same so it times the walk, not host
  // cache misses the probe would have hidden.
  p8::sim::ChipMemoryModel memory(config.hierarchy);
  s.hierarchy_s = timed(spans, "sim.hierarchy.access", parent, request, [&] {
    constexpr std::size_t kLookahead = 8;
    const std::size_t n = stream.addrs.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kLookahead < n)
        memory.prefetch_sets(stream.addrs[i + kLookahead] & line_mask);
      memory.access(stream.addrs[i] & line_mask);
    }
  });

  p8::sim::PrefetchEngine engine(config.prefetch);
  if (engine.enabled()) {
    std::vector<p8::sim::PrefetchRequest> requests;
    s.prefetch_s = timed(spans, "sim.prefetch.on_access", parent, request, [&] {
      walk_stream(
          stream,
          [&](std::span<const std::uint64_t> chunk) {
            for (const std::uint64_t addr : chunk)
              engine.on_access(addr & line_mask, requests);
          },
          [&](const TraceRecord& r) {
            if (r.op == TraceOp::kDcbtHint)
              engine.hint_stream(r.addr, r.length_bytes, r.descending,
                                 requests);
            else if (r.op == TraceOp::kDcbtStop)
              engine.hint_stop(r.addr);
          });
    });
  }
  return s;
}

void LayerTotals::add(const LayerSample& s) {
  accesses += s.accesses;
  probe_s += s.probe_s;
  tlb_s += s.tlb_s;
  hierarchy_s += s.hierarchy_s;
  prefetch_s += s.prefetch_s;
  l1_fast_hits += s.l1_fast_hits;
  ++samples;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_sim_layer_metrics(Outcome& out, const LayerTotals& layers,
                           const p8::sim::CounterRegistry& counters) {
  const double n = static_cast<double>(layers.accesses);
  const std::size_t k = layers.samples;
  const double layered = layers.tlb_s + layers.hierarchy_s + layers.prefetch_s;
  set_layer(out, "sim.probe.ns_per_access", ratio(layers.probe_s * 1e9, n), k);
  set_layer(out, "sim.probe.self_ns_per_access",
            ratio((layers.probe_s - layered) * 1e9, n), k);
  set_layer(out, "sim.batch.fast_path_ratio",
            ratio(static_cast<double>(layers.l1_fast_hits), n), k);
  set_layer(out, "sim.layer_coverage", ratio(layered, layers.probe_s), k);
  set_layer(out, "sim.tlb.ns_per_access", ratio(layers.tlb_s * 1e9, n), k);
  set_layer(out, "sim.hierarchy.ns_per_access",
            ratio(layers.hierarchy_s * 1e9, n), k);
  set_layer(out, "sim.prefetch.ns_per_access",
            ratio(layers.prefetch_s * 1e9, n), k);

  const auto count = [&](const std::string& name) {
    return static_cast<double>(counters.value(name));
  };
  const double translations = count("tlb.erat.hit") + count("tlb.erat.miss");
  const double loads = count("cache.loads");
  const double accesses = count("probe.accesses");
  double issued = 0.0;
  for (const auto& [name, value] : counters.snapshot())
    if (name.rfind("prefetch.dscr", 0) == 0 &&
        name.size() > 7 && name.compare(name.size() - 7, 7, ".issued") == 0)
      issued += static_cast<double>(value);
  const std::size_t c = static_cast<std::size_t>(accesses);
  set_layer(out, "sim.tlb.erat_miss_ratio",
            ratio(count("tlb.erat.miss"), translations), c);
  set_layer(out, "sim.tlb.walk_ratio", ratio(count("tlb.walk"), translations),
            c);
  set_layer(out, "sim.cache.l1_hit_ratio", ratio(count("cache.l1.hit"), loads),
            c);
  set_layer(out, "sim.cache.l3_victim_hit_ratio",
            ratio(count("cache.l3.victim.hit"), loads), c);
  set_layer(out, "sim.cache.l4_hit_ratio", ratio(count("cache.l4.hit"), loads),
            c);
  set_layer(out, "sim.cache.dram_fill_ratio",
            ratio(count("cache.dram.fill"), loads), c);
  set_layer(out, "sim.prefetch.issued_per_access", ratio(issued, accesses), c);
  set_layer(out, "sim.prefetch.useful_ratio",
            ratio(count("probe.prefetched_hits"), issued), c);
}

void EngineTotals::add(const std::vector<p8::common::TaskRecord>& timeline,
                       double wall_s, std::size_t workers,
                       std::size_t run_steals) {
  for (const p8::common::TaskRecord& r : timeline) {
    if (r.cancelled) continue;
    const double d = r.end_s - r.start_s;
    busy_s += d;
    longest_task_s = std::max(longest_task_s, d);
    ++tasks;
  }
  capacity_s += wall_s * static_cast<double>(workers);
  steals += run_steals;
}

void add_engine_metrics(Outcome& out, const EngineTotals& engine) {
  set_layer(out, "engine.utilization", ratio(engine.busy_s, engine.capacity_s),
            engine.tasks);
  set_layer(out, "engine.idle_s", std::max(0.0, engine.capacity_s - engine.busy_s),
            engine.tasks);
  set_layer(out, "engine.longest_task_s", engine.longest_task_s, engine.tasks);
  set_layer(out, "engine.steals", static_cast<double>(engine.steals),
            engine.tasks);
}

}  // namespace p8bench
