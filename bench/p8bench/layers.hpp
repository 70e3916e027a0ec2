// Per-layer measurement helpers shared by the workloads.
//
// Isolated-layer replay: a sampled point's access stream is captured
// once, then replayed through the whole LatencyProbe and through each
// probe layer on its own — the TLB, the cache hierarchy and the
// prefetch engine — following the probe's public call pattern (skip
// translate() while last_page_matches(), skip on_access() while the
// engine is disabled).  The per-layer times are therefore estimates of
// where the probe's time goes, not in-program timers.
//
// Engine statistics come from the task engine's own per-task timeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/taskgraph.hpp"
#include "report.hpp"
#include "sim/counters.hpp"
#include "sim/machine/machine.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"

namespace p8bench {

/// An access stream held compactly in memory: addresses in one array,
/// the rare hint/stop/mark records beside it with their position.
struct CapturedStream {
  struct Event {
    std::size_t before = 0;  ///< number of accesses preceding the record
    p8::trace::TraceRecord record;
  };
  std::vector<std::uint64_t> addrs;
  std::vector<Event> events;
};

class CaptureSink final : public p8::trace::TraceSink {
 public:
  explicit CaptureSink(CapturedStream& out) : out_(out) {}
  void access(std::uint64_t addr) override { out_.addrs.push_back(addr); }
  void dcbt_hint(std::uint64_t start, std::uint64_t length_bytes,
                 bool descending) override;
  void dcbt_stop(std::uint64_t addr) override;
  void mark(std::uint64_t id) override;

 private:
  CapturedStream& out_;
};

/// Sends one decoded record to `sink`.
void forward(const p8::trace::TraceRecord& record, p8::trace::TraceSink& sink);

/// Sends `stream` to `sink` in its original order.
void replay_into(const CapturedStream& stream, p8::trace::TraceSink& sink);

/// Host seconds one stream spends in the whole probe and in each layer
/// replayed alone.
struct LayerSample {
  std::uint64_t accesses = 0;
  double probe_s = 0.0;
  double tlb_s = 0.0;
  double hierarchy_s = 0.0;
  double prefetch_s = 0.0;
  std::uint64_t l1_fast_hits = 0;
};

/// Replays `stream` through a fresh probe built from `options` and then
/// through each layer alone, recording one span per replay under
/// `parent`.  When `counters` is non-null an extra, untimed probe replay
/// records the stack's exact event counts there.
LayerSample replay_layers(const p8::sim::Machine& machine,
                          const p8::sim::ProbeOptions& options,
                          const CapturedStream& stream, SpanRecorder* spans,
                          SpanRecorder::Id parent, std::uint64_t request,
                          p8::sim::CounterRegistry* counters);

/// Sums of layer samples and the per-layer metrics they yield.
struct LayerTotals {
  std::uint64_t accesses = 0;
  double probe_s = 0.0, tlb_s = 0.0, hierarchy_s = 0.0, prefetch_s = 0.0;
  std::uint64_t l1_fast_hits = 0;
  std::size_t samples = 0;

  void add(const LayerSample& s);
};

/// The src/sim per-layer metrics: timings from `layers`, exact ratios
/// from `counters` (the probe stack's registry).
void add_sim_layer_metrics(Outcome& out, const LayerTotals& layers,
                           const p8::sim::CounterRegistry& counters);

/// Task-engine statistics accumulated over sweep runs.
struct EngineTotals {
  double busy_s = 0.0;
  double capacity_s = 0.0;  ///< wall x workers
  double longest_task_s = 0.0;
  std::size_t steals = 0;
  std::size_t tasks = 0;

  void add(const std::vector<p8::common::TaskRecord>& timeline, double wall_s,
           std::size_t workers, std::size_t steals);
};

void add_engine_metrics(Outcome& out, const EngineTotals& engine);

}  // namespace p8bench
