// Event-driven latency probe.
//
// Replays an address stream — the lmbench-style pointer chase, strided
// scans, the DCBT random-block walk — against the TLB, the cache
// hierarchy and the prefetch engine under a virtual clock.  Each
// demand access is charged:
//
//   tlb_penalty + service_latency
//
// where the service latency is either the hit level's latency, or, if
// the line has a prefetch in flight, the *residual* until that
// prefetch completes.  Prefetches issued at access n for line n+k
// complete a full memory latency later, so a dependent chase settles
// at latency/(depth+1) — the steady-state pipelining the paper's
// Figures 6 and 7 demonstrate.
//
// The probe models a single requesting core; multi-core bandwidth is
// the domain of the analytic solver in sim/mem.
#pragma once

#include <cstdint>
#include <span>

#include "sim/cache/hierarchy.hpp"
#include "sim/cache/tlb.hpp"
#include "sim/machine/inflight_table.hpp"
#include "sim/prefetch/engine.hpp"

namespace p8::sim {

struct ProbeConfig {
  HierarchyConfig hierarchy;
  TlbConfig tlb;
  PrefetchConfig prefetch;
  /// Added to L4/DRAM service and prefetch-fill latency when the
  /// memory being probed is homed on another chip (SMP hops).
  double remote_extra_ns = 0.0;
  /// Non-memory work between accesses (0 for a dependent chase).
  double compute_per_access_ns = 0.0;
};

/// Per-access outcome.
struct AccessTiming {
  double latency_ns = 0.0;       ///< what the load cost
  ServiceLevel level = ServiceLevel::kDram;  ///< who serviced it
  bool prefetched = false;       ///< serviced (fully or partly) by prefetch
};

/// Aggregate outcome of one access_batch() chunk (fields accumulate
/// across calls, so one BatchStats can follow a whole replay).
struct BatchStats {
  std::uint64_t accesses = 0;        ///< demand loads replayed
  /// L1 hits on the page of the previous translation with no prefetch
  /// covering the line: the accesses that touch only the ERAT
  /// register and the L1.
  std::uint64_t l1_fast_hits = 0;
  std::uint64_t prefetched_hits = 0; ///< serviced out of a prefetch
  double busy_ns = 0.0;              ///< simulated clock advance
};

class LatencyProbe {
 public:
  explicit LatencyProbe(const ProbeConfig& config);

  const ProbeConfig& config() const { return config_; }

  /// Performs one demand load and advances the clock.
  AccessTiming access(std::uint64_t addr);

  /// Performs the demand loads of `addrs` in order through access(),
  /// so every piece of simulator state ends exactly as the equivalent
  /// access() loop leaves it.  What the chunk adds is foresight: after
  /// each access that leaves the L1, the host is hinted about the set
  /// arrays a few addresses ahead.  Accumulates the chunk into `stats`.
  void access_batch(std::span<const std::uint64_t> addrs, BatchStats& stats);

  /// Issues a DCBT stream hint at the current time (paper §III-D).
  void dcbt_hint(std::uint64_t start, std::uint64_t length_bytes,
                 bool descending = false);

  /// DCBT stop for the stream covering addr.
  void dcbt_stop(std::uint64_t addr);

  double now_ns() const { return now_ns_; }

  /// Resets caches, TLB, engine, clock and in-flight prefetches.
  void reset();

  /// Attaches the whole probe stack to one registry: the TLB under
  /// `tlb.`, the hierarchy under `cache.`, the prefetch engine under
  /// `prefetch.dscr<k>.`, plus the probe's own `probe.accesses` and
  /// `probe.prefetched_hits` (accesses serviced out of an in-flight
  /// or completed prefetch).
  void attach_counters(CounterRegistry* registry);

 private:
  void launch(const std::vector<PrefetchRequest>& requests);

  ProbeConfig config_;
  Tlb tlb_;
  ChipMemoryModel memory_;
  PrefetchEngine engine_;
  /// line address -> completion time of its in-flight prefetch.
  InflightTable inflight_;
  /// Reused request buffer: the engine fills it on every access, so
  /// keeping one alive avoids an allocation per simulated load.
  std::vector<PrefetchRequest> requests_;
  std::uint64_t line_mask_;  ///< ~(line_bytes - 1): line rounding
  double now_ns_ = 0.0;
  struct {
    Counter accesses, prefetched;
  } events_;
};

}  // namespace p8::sim
