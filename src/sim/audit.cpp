#include "sim/audit.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace p8::sim {

namespace {

/// printf-style formatting into a std::string, for diagnostic text.
template <typename... Args>
std::string fmt(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

bool pow2(std::uint64_t v) { return v != 0 && std::has_single_bit(v); }

/// Geometry check shared by every set-associative level: capacity a
/// whole number of sets, and (for the demand-indexed levels) a
/// power-of-two set count so shift/mask indexing is exact.
void check_level_geometry(AuditReport& report, const char* level,
                          std::uint64_t capacity, unsigned ways,
                          std::uint64_t line_bytes, bool want_pow2_sets) {
  if (ways < 1) {
    report.add(AuditSeverity::kError, "hierarchy.geometry",
               fmt("%s has %u ways; a cache needs at least one", level, ways));
    return;
  }
  if (line_bytes == 0) return;  // reported by hierarchy.line-size
  const std::uint64_t row = static_cast<std::uint64_t>(ways) * line_bytes;
  if (capacity == 0 || capacity % row != 0) {
    report.add(AuditSeverity::kError, "hierarchy.geometry",
               fmt("%s capacity %llu B is not a whole number of %u-way "
                   "sets of %llu B lines",
                   level, static_cast<unsigned long long>(capacity), ways,
                   static_cast<unsigned long long>(line_bytes)));
    return;
  }
  const std::uint64_t sets = capacity / row;
  if (want_pow2_sets && !pow2(sets))
    report.add(AuditSeverity::kError, "hierarchy.set-power-of-two",
               fmt("%s has %llu sets; demand-indexed levels need a "
                   "power of two for exact shift/mask indexing",
                   level, static_cast<unsigned long long>(sets)));
}

}  // namespace

const char* to_string(AuditSeverity severity) {
  return severity == AuditSeverity::kError ? "error" : "warning";
}

std::size_t AuditReport::error_count() const {
  std::size_t n = 0;
  for (const auto& d : diagnostics)
    n += d.severity == AuditSeverity::kError ? 1 : 0;
  return n;
}

std::size_t AuditReport::warning_count() const {
  return diagnostics.size() - error_count();
}

bool AuditReport::has(const std::string& rule) const {
  for (const auto& d : diagnostics)
    if (d.rule == rule) return true;
  return false;
}

std::string AuditReport::to_string() const {
  std::string out;
  for (const auto& d : diagnostics) {
    out += "audit: ";
    out += sim::to_string(d.severity);
    out += " [" + d.rule + "] " + d.message + "\n";
  }
  return out;
}

void AuditReport::add(AuditSeverity severity, std::string rule,
                      std::string message) {
  diagnostics.push_back({std::move(rule), severity, std::move(message)});
}

void AuditReport::merge(const AuditReport& other) {
  diagnostics.insert(diagnostics.end(), other.diagnostics.begin(),
                     other.diagnostics.end());
}

AuditReport ModelAudit::hierarchy(const HierarchyConfig& c) {
  AuditReport report;
  if (!pow2(c.line_bytes))
    report.add(AuditSeverity::kError, "hierarchy.line-size",
               fmt("cache line size %llu B is not a power of two",
                   static_cast<unsigned long long>(c.line_bytes)));
  // Demand-indexed, per-core levels index by shift/mask and must have
  // power-of-two set counts (they do on POWER8).  The victim pool and
  // L4 are capacity aggregates over (cores-1) regions / N Centaurs and
  // legitimately end up with irregular set counts, but they still
  // need whole sets — the cache constructor would throw otherwise.
  check_level_geometry(report, "L1", c.l1_bytes, c.l1_ways, c.line_bytes,
                       /*want_pow2_sets=*/true);
  check_level_geometry(report, "L2", c.l2_bytes, c.l2_ways, c.line_bytes,
                       /*want_pow2_sets=*/true);
  check_level_geometry(report, "L3", c.l3_bytes, c.l3_ways, c.line_bytes,
                       /*want_pow2_sets=*/true);
  if (c.victim_l3 && c.victim_bytes() > 0)
    check_level_geometry(report, "victim pool", c.victim_bytes(),
                         HierarchyConfig::kPoolWays, c.line_bytes,
                         /*want_pow2_sets=*/false);
  check_level_geometry(report, "L4", c.l4_bytes, HierarchyConfig::kPoolWays,
                       c.line_bytes, /*want_pow2_sets=*/false);
  if (!(c.l1_bytes < c.l2_bytes && c.l2_bytes < c.l3_bytes))
    report.add(AuditSeverity::kError, "hierarchy.capacity-order",
               fmt("capacities must grow away from the core: "
                   "L1 %llu B, L2 %llu B, L3 %llu B",
                   static_cast<unsigned long long>(c.l1_bytes),
                   static_cast<unsigned long long>(c.l2_bytes),
                   static_cast<unsigned long long>(c.l3_bytes)));
  const HierarchyLatencies& l = c.latency;
  if (!(l.l1_ns > 0.0 && l.l1_ns < l.l2_ns && l.l2_ns < l.l3_local_ns &&
        l.l3_local_ns < l.l3_remote_ns && l.l3_remote_ns < l.l4_ns &&
        l.l4_ns < l.dram_ns))
    report.add(AuditSeverity::kError, "hierarchy.latency-order",
               fmt("load-to-use latencies must be positive and strictly "
                   "increasing away from the core: L1 %.2f, L2 %.2f, "
                   "L3 %.2f, L3(remote) %.2f, L4 %.2f, DRAM %.2f ns",
                   l.l1_ns, l.l2_ns, l.l3_local_ns, l.l3_remote_ns, l.l4_ns,
                   l.dram_ns));
  if (c.chip_cores < 1)
    report.add(AuditSeverity::kError, "hierarchy.shape",
               fmt("chip needs at least one core (got %d)", c.chip_cores));
  return report;
}

AuditReport ModelAudit::tlb(const TlbConfig& c) {
  AuditReport report;
  if (!pow2(c.page_bytes))
    report.add(AuditSeverity::kError, "tlb.page-size",
               fmt("page size %llu B is not a power of two",
                   static_cast<unsigned long long>(c.page_bytes)));
  if (c.erat_entries < 1 || c.tlb_entries < 1 || c.tlb_ways < 1)
    report.add(AuditSeverity::kError, "tlb.geometry",
               "translation structures need at least one entry and one way");
  else if (c.tlb_entries % c.tlb_ways != 0)
    report.add(AuditSeverity::kError, "tlb.geometry",
               fmt("TLB entry count %u is not a whole number of %u-way sets",
                   c.tlb_entries, c.tlb_ways));
  else if (!pow2(c.tlb_entries / c.tlb_ways))
    report.add(AuditSeverity::kError, "tlb.geometry",
               fmt("TLB set count %u is not a power of two",
                   c.tlb_entries / c.tlb_ways));
  // The ERAT is the first level of a two-level structure: if it
  // reaches further than the TLB behind it, the "backing" level can
  // never service an ERAT miss and the Fig. 2 spike model is nonsense.
  if (c.erat_entries > c.tlb_entries)
    report.add(AuditSeverity::kError, "tlb.reach-order",
               fmt("ERAT reach (%u entries) exceeds the TLB behind it "
                   "(%u entries)",
                   c.erat_entries, c.tlb_entries));
  if (!(c.erat_miss_ns > 0.0 && c.erat_miss_ns < c.walk_ns))
    report.add(AuditSeverity::kError, "tlb.penalty-order",
               fmt("an ERAT miss that hits the TLB (%.2f ns) must cost "
                   "less than a full page-table walk (%.2f ns)",
                   c.erat_miss_ns, c.walk_ns));
  return report;
}

AuditReport ModelAudit::prefetch(const PrefetchConfig& c) {
  AuditReport report;
  if (c.dscr < 0 || c.dscr > 7)
    report.add(AuditSeverity::kError, "prefetch.dscr-range",
               fmt("DSCR depth encoding must be 0..7, got %d", c.dscr));
  if (c.max_streams < 1 || c.max_streams > 1024)
    report.add(AuditSeverity::kError, "prefetch.streams",
               fmt("stream table size %u outside 1..1024", c.max_streams));
  if (c.confirm_touches < 1)
    report.add(AuditSeverity::kError, "prefetch.streams",
               fmt("engine needs at least one confirmation touch, got %d",
                   c.confirm_touches));
  if (c.max_stride_lines < 1)
    report.add(AuditSeverity::kError, "prefetch.streams",
               fmt("stride-N detector bound must be positive, got %lld",
                   static_cast<long long>(c.max_stride_lines)));
  if (!pow2(c.line_bytes))
    report.add(AuditSeverity::kError, "prefetch.line-size",
               fmt("prefetch line size %llu B is not a power of two",
                   static_cast<unsigned long long>(c.line_bytes)));
  return report;
}

AuditReport ModelAudit::bandwidth(const arch::SystemSpec& spec,
                                  const MemBandwidthParams& p) {
  AuditReport report;
  // The Centaur attaches through two read links and one write link —
  // the structural 2:1 that produces the Table III bandwidth peak at a
  // 2:1 read:write mix.  A spec that loses the ratio silently moves
  // the peak.
  const double r = spec.centaur.read_link_gbs;
  const double w = spec.centaur.write_link_gbs;
  if (!(r > 0.0 && w > 0.0 && std::abs(r / w - 2.0) < 1e-9))
    report.add(AuditSeverity::kError, "mem.link-ratio",
               fmt("Centaur read:write link ratio must be 2:1 (two read "
                   "links, one write link), got %.2f:%.2f GB/s",
                   r, w));
  if (!(p.read_link_eff > 0.0 && p.read_link_eff <= 1.0 &&
        p.write_link_eff > 0.0 && p.write_link_eff <= 1.0))
    report.add(AuditSeverity::kError, "mem.efficiency-range",
               fmt("link efficiencies must lie in (0, 1]: read %.3f, "
                   "write %.3f",
                   p.read_link_eff, p.write_link_eff));
  if (p.turnaround_coeff < 0.0)
    report.add(AuditSeverity::kError, "mem.efficiency-range",
               fmt("turnaround coefficient must be non-negative, got %.3f",
                   p.turnaround_coeff));
  else if (p.write_link_eff - p.turnaround_coeff <= 0.0)
    report.add(AuditSeverity::kWarning, "mem.turnaround-floor",
               fmt("write efficiency %.3f - turnaround %.3f goes negative "
                   "at a 1:1 mix; the model clamps to 0.05",
                   p.write_link_eff, p.turnaround_coeff));
  if (!(p.random_latency_ns > 0.0 && p.stream_latency_ns > 0.0 &&
        p.random_latency_ns <= p.stream_latency_ns))
    report.add(AuditSeverity::kError, "mem.latency-order",
               fmt("unloaded random latency (%.1f ns) must be positive and "
                   "no larger than the loaded streaming latency (%.1f ns)",
                   p.random_latency_ns, p.stream_latency_ns));
  if (p.core_stream_mlp < 1 || p.core_random_mlp < 1 ||
      p.chip_fabric_gbs <= 0.0 || p.random_row_cap_gbs <= 0.0)
    report.add(AuditSeverity::kError, "mem.capacity-range",
               "per-core MLP counts and per-chip capacity caps must be "
               "positive");
  return report;
}

AuditReport ModelAudit::noc(const NocParams& p) {
  AuditReport report;
  if (!(p.link_protocol_eff > 0.0 && p.link_protocol_eff <= 1.0))
    report.add(AuditSeverity::kError, "noc.efficiency-range",
               fmt("link protocol efficiency %.3f outside (0, 1]",
                   p.link_protocol_eff));
  if (!(p.request_overhead >= 0.0 && p.request_overhead < 1.0))
    report.add(AuditSeverity::kError, "noc.efficiency-range",
               fmt("request overhead %.3f outside [0, 1)",
                   p.request_overhead));
  if (p.hop_amplification < 1.0)
    report.add(AuditSeverity::kError, "noc.efficiency-range",
               fmt("hop amplification %.3f < 1 would make multi-hop routes "
                   "cheaper than their first hop",
                   p.hop_amplification));
  if (p.ingest_cap_gbs <= 0.0 || p.max_routes_inter_group < 1)
    report.add(AuditSeverity::kError, "noc.capacity-range",
               "ingest cap must be positive and at least one inter-group "
               "route is needed");
  if (p.local_dram_latency_ns <= 0.0)
    report.add(AuditSeverity::kError, "noc.latency",
               fmt("local DRAM latency %.1f ns must be positive",
                   p.local_dram_latency_ns));
  return report;
}

AuditReport ModelAudit::system(const arch::SystemSpec& spec) {
  AuditReport report;
  if (spec.sockets < 1 || spec.chips_per_socket < 1 ||
      spec.cores_per_chip < 1 || spec.centaurs_per_chip < 1 ||
      spec.chips_per_group < 1 || spec.abus_links_per_pair < 1)
    report.add(AuditSeverity::kError, "system.shape",
               fmt("system shape counts must be positive: %d sockets x %d "
                   "chips x %d cores, %d Centaurs/chip, %d chips/group",
                   spec.sockets, spec.chips_per_socket, spec.cores_per_chip,
                   spec.centaurs_per_chip, spec.chips_per_group));
  if (spec.cores_per_chip > spec.processor.max_cores)
    report.add(AuditSeverity::kError, "system.shape",
               fmt("%d cores per chip exceeds the %s's %d-core maximum",
                   spec.cores_per_chip, spec.processor.name.c_str(),
                   spec.processor.max_cores));
  // The Centaurs' L4s together form the chip's memory-side cache, and
  // the processor attaches at most max_l4_bytes of it (128 MB on
  // POWER8); a bigger sum would simulate an L4 no such chip can have.
  if (spec.centaurs_per_chip >= 1) {
    const std::uint64_t chip_l4 =
        static_cast<std::uint64_t>(spec.centaurs_per_chip) *
        spec.centaur.l4_bytes;
    if (chip_l4 > spec.processor.max_l4_bytes)
      report.add(AuditSeverity::kError, "system.l4-attach",
                 fmt("%d Centaurs x %llu B of L4 is %llu B per chip, past "
                     "the %s's %llu B L4 attach limit",
                     spec.centaurs_per_chip,
                     static_cast<unsigned long long>(spec.centaur.l4_bytes),
                     static_cast<unsigned long long>(chip_l4),
                     spec.processor.name.c_str(),
                     static_cast<unsigned long long>(
                         spec.processor.max_l4_bytes)));
  }
  // The interconnect model builds whole groups and fans A-links only
  // between two of them (arch::Topology): a chip count that is not a
  // whole number of groups, or a shape needing three or more groups,
  // would throw at Machine construction — diagnose it here instead so
  // the failure is a named audit rule, not an exception.
  if (spec.total_chips() >= 1 && spec.chips_per_group >= 1) {
    const int group = std::min(spec.chips_per_group, spec.total_chips());
    if (spec.total_chips() % group != 0)
      report.add(AuditSeverity::kError, "system.group-shape",
                 fmt("%d chips is not a whole number of %d-chip groups",
                     spec.total_chips(), group));
    else if (spec.total_chips() / group > 2)
      report.add(AuditSeverity::kError, "system.group-shape",
                 fmt("%d chips in %d-chip groups needs %d groups; the "
                     "interconnect model supports at most two",
                     spec.total_chips(), group, spec.total_chips() / group));
  }
  const int smt = spec.processor.core.smt_threads;
  if (smt != 1 && smt != 2 && smt != 4 && smt != 8)
    report.add(AuditSeverity::kError, "system.smt",
               fmt("SMT width must be 1, 2, 4 or 8, got %d", smt));
  if (spec.clock_ghz <= 0.0)
    report.add(AuditSeverity::kError, "system.clock",
               fmt("clock %.2f GHz must be positive", spec.clock_ghz));
  else if (spec.clock_ghz < 0.5 || spec.clock_ghz > 6.0)
    report.add(AuditSeverity::kWarning, "system.clock",
               fmt("clock %.2f GHz is outside the plausible POWER8 "
                   "envelope (0.5..6 GHz)",
                   spec.clock_ghz));
  const auto& core = spec.processor.core;
  if (!(core.l1d_bytes < core.l2_bytes && core.l2_bytes < core.l3_bytes))
    report.add(AuditSeverity::kError, "system.core-caches",
               fmt("per-core cache capacities must grow away from the "
                   "core: L1d %llu B, L2 %llu B, L3 %llu B",
                   static_cast<unsigned long long>(core.l1d_bytes),
                   static_cast<unsigned long long>(core.l2_bytes),
                   static_cast<unsigned long long>(core.l3_bytes)));
  if (!pow2(spec.processor.cache_line_bytes))
    report.add(AuditSeverity::kError, "system.core-caches",
               fmt("cache line size %llu B is not a power of two",
                   static_cast<unsigned long long>(
                       spec.processor.cache_line_bytes)));
  return report;
}

AuditReport ModelAudit::probe_config(const ProbeConfig& c) {
  AuditReport report;
  report.merge(hierarchy(c.hierarchy));
  report.merge(tlb(c.tlb));
  report.merge(prefetch(c.prefetch));
  // Cross-component: the prefetch engine and the hierarchy must agree
  // on what a "line" is, or prefetches land between the cache's lines
  // and every coverage number silently halves or doubles.
  if (c.prefetch.line_bytes != c.hierarchy.line_bytes)
    report.add(AuditSeverity::kError, "probe.line-bytes",
               fmt("prefetch engine line size (%llu B) disagrees with the "
                   "cache hierarchy (%llu B)",
                   static_cast<unsigned long long>(c.prefetch.line_bytes),
                   static_cast<unsigned long long>(c.hierarchy.line_bytes)));
  if (c.remote_extra_ns < 0.0 || c.compute_per_access_ns < 0.0)
    report.add(AuditSeverity::kError, "probe.negative-time",
               fmt("remote extra (%.2f ns) and compute per access (%.2f ns) "
                   "must be non-negative",
                   c.remote_extra_ns, c.compute_per_access_ns));
  // A page-table walk slower than DRAM would dominate the very
  // latencies Fig. 2 attributes to the memory levels.
  if (c.tlb.walk_ns >= c.hierarchy.latency.dram_ns)
    report.add(AuditSeverity::kWarning, "probe.walk-vs-dram",
               fmt("page-walk penalty (%.1f ns) is not below the DRAM "
                   "latency (%.1f ns)",
                   c.tlb.walk_ns, c.hierarchy.latency.dram_ns));
  return report;
}

AuditReport ModelAudit::machine(const arch::SystemSpec& spec,
                                const MemBandwidthParams& mem_params,
                                const NocParams& noc_params) {
  AuditReport report;
  report.merge(system(spec));
  report.merge(bandwidth(spec, mem_params));
  report.merge(noc(noc_params));
  // The probe stack this spec implies (what Machine::probe builds with
  // default options).  Its DRAM service latency is the NoC's local
  // DRAM latency, so the two cannot drift apart.
  ProbeConfig probe;
  probe.hierarchy = HierarchyConfig::from_spec(spec, noc_params);
  probe.prefetch.line_bytes = spec.processor.cache_line_bytes;
  report.merge(probe_config(probe));
  return report;
}

}  // namespace p8::sim
