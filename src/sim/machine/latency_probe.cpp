#include "sim/machine/latency_probe.hpp"

#include <algorithm>
#include <bit>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace p8::sim {

LatencyProbe::LatencyProbe(const ProbeConfig& config)
    : config_(config),
      tlb_(config.tlb),
      memory_(config.hierarchy),
      engine_(config.prefetch) {
  P8_REQUIRE(std::has_single_bit(config.hierarchy.line_bytes),
             "line size must be a power of two");
  line_mask_ = ~(config.hierarchy.line_bytes - 1);
}

void LatencyProbe::launch(const std::vector<PrefetchRequest>& requests) {
  for (const auto& req : requests) {
    const std::uint64_t line = req.line_addr;
    if (inflight_.contains(line)) continue;
    // The prefetch fills from wherever the line currently lives; a
    // line already core-adjacent needs no prefetch at all.
    const ServiceLevel src = memory_.lookup(line);
    if (src == ServiceLevel::kL1 || src == ServiceLevel::kL2 ||
        src == ServiceLevel::kL3Local)
      continue;
    double fill = config_.hierarchy.latency.of(src);
    if (src == ServiceLevel::kL4 || src == ServiceLevel::kDram)
      fill += config_.remote_extra_ns;
    P8_INVARIANT(fill >= 0.0,
                 "a prefetch fill can never complete before it was issued");
    inflight_.insert(line, now_ns_ + fill);
  }
}

AccessTiming LatencyProbe::access(std::uint64_t addr) {
  const std::uint64_t line = addr & line_mask_;
  AccessTiming t;
  // A depth-0 engine never issues a prefetch (demand or DCBT), so the
  // in-flight table is provably empty and the probe can be skipped.
  // Probing here instead of after the translate is safe: the table
  // only changes through launch()/erase_found() below.
  const double* completion =
      engine_.enabled() ? inflight_.find(line) : nullptr;
  double latency = tlb_.access_penalty_ns(addr);

  if (completion) {
    // A prefetch covers this line: pay the residual (if the fill is
    // still in flight) on top of an L1-adjacent hit.
    const double residual = std::max(0.0, *completion - now_ns_);
    latency += config_.hierarchy.latency.l1_ns + residual;
    t.level = ServiceLevel::kL1;
    t.prefetched = true;
    memory_.install_prefetched(line);
    inflight_.erase_found(completion);
  } else {
    const ServiceLevel level = memory_.access(line);
    double service = config_.hierarchy.latency.of(level);
    if (level == ServiceLevel::kL4 || level == ServiceLevel::kDram)
      service += config_.remote_extra_ns;
    latency += service;
    t.level = level;
  }

  events_.accesses.add();
  if (t.prefetched) events_.prefetched.add();

  // Prefetches launch when the demand access is *seen* (its start),
  // overlapping with the access itself — so even depth 1 hides one
  // access worth of latency.  The engine never prefetches the current
  // line, so feeding it before resolution is safe.  With the engine
  // disabled (depth 0) the call could only clear the empty request
  // buffer, so skip it outright.
  t.latency_ns = latency;
  if (engine_.enabled()) {
    engine_.on_access(line, requests_);
    launch(requests_);
  }
  P8_INVARIANT(latency >= 0.0 && config_.compute_per_access_ns >= 0.0,
               "the probe clock must be monotone: no access may take "
               "negative time");
  now_ns_ += latency + config_.compute_per_access_ns;
  return t;
}

void LatencyProbe::access_batch(std::span<const std::uint64_t> addrs,
                                BatchStats& stats) {
  const double t0 = now_ns_;
  // Knowing the future is what the batch buys: hint the host CPU about
  // the set arrays a few addresses ahead, so by the time the walk
  // reaches them the (host-LLC-dwarfing) victim/L4 arrays are
  // resident.  Hints read no simulator state and write none.  They
  // only pay when the walk leaves the L1 and scans those arrays, so
  // they follow L1-missing accesses only (a unit-stride scan with the
  // prefetcher on stays in the L1 and would pay ~6 host prefetches
  // per access for set arrays it never reads).
  constexpr std::size_t kLookahead = 8;
  const std::size_t n = addrs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const bool same_page = tlb_.last_page_matches(addrs[i]);
    const AccessTiming t = access(addrs[i]);
    const bool l1 = t.level == ServiceLevel::kL1;
    if (!l1 && i + kLookahead < n)
      memory_.prefetch_sets(addrs[i + kLookahead] & line_mask_);
    stats.l1_fast_hits += same_page && l1 && !t.prefetched;
    stats.prefetched_hits += t.prefetched;
  }
  P8_ENSURE(now_ns_ >= t0,
            "replaying a chunk must never move the probe clock backwards");
  stats.accesses += n;
  stats.busy_ns += now_ns_ - t0;
}

void LatencyProbe::dcbt_hint(std::uint64_t start, std::uint64_t length_bytes,
                             bool descending) {
  engine_.hint_stream(start, length_bytes, descending, requests_);
  launch(requests_);
}

void LatencyProbe::dcbt_stop(std::uint64_t addr) { engine_.hint_stop(addr); }

void LatencyProbe::attach_counters(CounterRegistry* registry) {
  tlb_.attach_counters(registry);
  memory_.attach_counters(registry);
  engine_.attach_counters(registry);
  events_.accesses = make_counter(registry, "probe.", "accesses");
  events_.prefetched = make_counter(registry, "probe.", "prefetched_hits");
}

void LatencyProbe::reset() {
  tlb_.clear();
  memory_.clear();
  engine_.clear();
  inflight_.clear();
  now_ns_ = 0.0;
  P8_ENSURE(inflight_.empty(), "reset must drain every in-flight fill");
}

}  // namespace p8::sim
