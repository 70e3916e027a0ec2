// Microbenchmark workloads (paper §III) as drivers for the machine
// model.  Each function replays the access pattern of one of the
// paper's experiments through a LatencyProbe and reports what the
// paper reported.
//
//  * memory_latency_scan   — lmbench-style randomized pointer chase
//                            over a working set (Fig. 2, Fig. 6 lat).
//  * stride_latency        — stride-N chase (Fig. 7).
//  * dcbt_block_scan       — random blocks scanned sequentially inside,
//                            with/without DCBT stream hints (Fig. 8).
//
// Bandwidth-oriented experiments (Table III, Fig. 3, Fig. 4, Fig. 6
// bandwidth) use the analytic MemoryBandwidthModel directly; the
// drivers for those live in the bench binaries.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/machine/machine.hpp"
#include "sim/machine/sweep.hpp"
#include "trace/trace.hpp"

namespace p8::ubench {

/// Mark id every generator emits at its warm→measure boundary, so a
/// recorded trace carries the measurement window inside itself.
inline constexpr std::uint64_t kMarkMeasureStart = 1;

/// Chain layout for the pointer chase, mirroring lmbench's choices:
/// a random single-cycle permutation (the default; defeats any
/// prefetcher) or forward/backward strided chains (which a stream
/// prefetcher can detect when enabled).
enum class ChasePattern {
  kRandom,
  kForwardStride,
  kBackwardStride,
};

struct ChaseOptions {
  std::uint64_t working_set_bytes = 1 << 20;
  std::uint64_t page_bytes = 64 * 1024;
  int dscr = 1;  ///< 1 = prefetch off, the lmbench configuration
  bool stride_n = false;
  int home_chip = 0;
  int consumer_chip = 0;
  ChasePattern pattern = ChasePattern::kRandom;
  /// Chain stride in cache lines for the strided patterns.
  std::uint64_t stride_lines = 1;
  /// Accesses used to warm the hierarchy before measuring (capped at
  /// the working-set size internally).
  std::uint64_t warm_accesses = 4u << 20;
  std::uint64_t measure_accesses = 1u << 20;
  std::uint64_t seed = 42;
  /// Optional event sink for the probe stack (null = counting off).
  sim::CounterRegistry* counters = nullptr;
};

/// Average load-to-use latency of a randomized pointer chase (every
/// element on its own cache line, Sattolo single-cycle permutation —
/// the lmbench lat_mem_rd setup with hardware prefetch disabled).
double chase_latency_ns(const sim::Machine& machine,
                        const ChaseOptions& options);

/// A full Fig. 2-style scan: latency at each working-set size.
struct LatencyPoint {
  std::uint64_t working_set_bytes = 0;
  double latency_ns = 0.0;
};
std::vector<LatencyPoint> memory_latency_scan(
    const sim::Machine& machine, const std::vector<std::uint64_t>& sizes,
    std::uint64_t page_bytes, int dscr = 1,
    sim::CounterRegistry* counters = nullptr);

/// Parallel variant: fans the working-set points across `runner`.
/// Each point builds its own probe, so the result is bit-identical to
/// the sequential overload (the determinism the sweep tests pin down).
/// With `counters`, each point records into a private registry and the
/// registries merge in point order, so the totals are also identical
/// to the sequential overload for any worker count.
std::vector<LatencyPoint> memory_latency_scan(
    const sim::Machine& machine, const std::vector<std::uint64_t>& sizes,
    std::uint64_t page_bytes, int dscr, sim::SweepRunner& runner,
    sim::CounterRegistry* counters = nullptr);

struct StrideOptions {
  std::uint64_t stride_lines = 256;   ///< paper uses a stride-256 stream
  std::uint64_t accesses = 200000;
  std::uint64_t page_bytes = 16ull << 20;  ///< huge pages: isolate prefetch
  int dscr = 7;
  bool stride_n = false;
  /// Chip issuing the loads and chip homing the stream (SMP hops).
  int home_chip = 0;
  int consumer_chip = 0;
  /// Optional event sink for the probe stack (null = counting off).
  sim::CounterRegistry* counters = nullptr;
};

/// Average latency of a strided sequential scan (Fig. 7): only every
/// `stride_lines`-th cache line is touched.
double stride_latency_ns(const sim::Machine& machine,
                         const StrideOptions& options);

struct DcbtOptions {
  std::uint64_t block_bytes = 2048;
  std::uint64_t total_bytes = 16ull << 20;
  bool use_dcbt = false;
  int dscr = 0;  ///< hardware default prefetching stays on
  std::uint64_t page_bytes = 16ull << 20;
  std::uint64_t seed = 7;
  /// Optional event sink for the probe stack (null = counting off).
  sim::CounterRegistry* counters = nullptr;
};

/// Achieved read bandwidth (GB/s, single thread) of the random-block
/// sequential scan of Fig. 8.  Blocks are visited in random order;
/// lines inside a block are scanned sequentially; with `use_dcbt` a
/// stream hint is issued at each block start and stopped at its end.
double dcbt_block_bandwidth_gbs(const sim::Machine& machine,
                                const DcbtOptions& options);

// ---------------------------------------------------------------------------
// Trace emission.  Each generator produces its exact access stream —
// the same addresses, in the same order, with a kMarkMeasureStart mark
// at the warm→measure boundary — through a TraceSink.  The drivers
// above feed a ChunkedReplayer; `p8trace record` feeds a TraceWriter;
// both see one stream, never materialized.

/// A pointer-chase chain as a visiting order over line indices: the
/// line after order[k] is order[(k + 1) % order.size()].  Every chase
/// starts at line 0, which sits in slot `start`.
struct ChaseChain {
  std::vector<std::uint32_t> order;
  std::uint64_t start = 0;
};

/// The chain emit_chase_trace walks over `lines` lines: Sattolo's
/// random single cycle seeded by `options.seed`, or lmbench's strided
/// chain.  Throws past 2^32 lines.
ChaseChain chase_chain(std::uint64_t lines, const ChaseOptions& options);

/// The pointer chase of chase_latency_ns (warm laps, mark, measured
/// laps).  `line_bytes` is the machine's cache-line size.
void emit_chase_trace(std::uint64_t line_bytes, const ChaseOptions& options,
                      trace::TraceSink& sink);

/// The strided scan of stride_latency_ns (ramp-up skip, mark, steady
/// state).
void emit_stride_trace(std::uint64_t line_bytes, const StrideOptions& options,
                       trace::TraceSink& sink);

/// The random-block walk of dcbt_block_bandwidth_gbs (mark at t0, then
/// per block: optional DCBT hint, the block's lines, optional stop).
void emit_dcbt_trace(std::uint64_t line_bytes, const DcbtOptions& options,
                     trace::TraceSink& sink);

/// A named, recordable workload for the p8trace CLI: the probe
/// configuration it runs under and its trace generator.
struct TraceWorkload {
  std::string name;
  std::string description;
  sim::ProbeOptions probe_options;
  /// Emits the stream.  `accesses_hint` scales the workload's primary
  /// size knob when nonzero (exact meaning is workload-specific);
  /// 0 keeps the registered defaults.
  std::function<void(const sim::Machine& machine, std::uint64_t accesses_hint,
                     trace::TraceSink& sink)>
      emit;
};

/// The registry `p8trace record --workload=` resolves against.
const std::vector<TraceWorkload>& trace_workloads();

/// Lookup by name; nullptr when unknown.
const TraceWorkload* find_trace_workload(const std::string& name);

}  // namespace p8::ubench
