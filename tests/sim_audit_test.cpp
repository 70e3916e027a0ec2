// ModelAudit: the checked-in E870 configuration must pass every rule,
// and each misconfiguration class the audit claims to reject must
// actually be rejected — one test per class, asserting on the stable
// rule id so a renamed rule breaks loudly.  Also pins the report
// mechanics: severity split, ok() semantics (warnings never gate),
// merge, and the machine-level gate wiring through Machine::audit().
#include <gtest/gtest.h>

#include <string>

#include "arch/spec.hpp"
#include "common/units.hpp"
#include "sim/audit.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/spec.hpp"

namespace p8::sim {
namespace {

HierarchyConfig e870_hierarchy() {
  return HierarchyConfig::from_spec(arch::e870(), NocParams{});
}

ProbeConfig e870_probe() {
  ProbeConfig c;
  c.hierarchy = e870_hierarchy();
  c.prefetch.line_bytes = arch::e870().processor.cache_line_bytes;
  return c;
}

// ------------------------------------------------------- clean configs ----

TEST(ModelAudit, E870MachinePassesEveryRule) {
  const AuditReport report =
      ModelAudit::machine(arch::e870(), MemBandwidthParams{}, NocParams{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(report.diagnostics.empty()) << report.to_string();
}

TEST(ModelAudit, MachineStoresItsAuditReport) {
  const Machine machine = Machine(arch::e870());
  EXPECT_TRUE(machine.audit().ok()) << machine.audit().to_string();
}

TEST(ModelAudit, VictimPoolIrregularSetCountIsLegitimate) {
  // 7 x 8 MB / 16-way / 128 B = 28672 sets — not a power of two, and
  // correct: the pow2 rule applies only to the demand-indexed levels.
  const AuditReport report = ModelAudit::hierarchy(e870_hierarchy());
  EXPECT_FALSE(report.has("hierarchy.set-power-of-two"))
      << report.to_string();
}

// --------------------------------------- rejected misconfig class 1..N ----

TEST(ModelAudit, RejectsInvertedCacheLatencies) {
  HierarchyConfig c = e870_hierarchy();
  std::swap(c.latency.l2_ns, c.latency.l3_local_ns);
  const AuditReport report = ModelAudit::hierarchy(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("hierarchy.latency-order")) << report.to_string();
}

TEST(ModelAudit, RejectsNonPowerOfTwoDemandSets) {
  HierarchyConfig c = e870_hierarchy();
  c.l1_bytes = 96 * 1024;  // 96 sets at 8 ways x 128 B
  const AuditReport report = ModelAudit::hierarchy(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("hierarchy.set-power-of-two")) << report.to_string();
}

TEST(ModelAudit, RejectsShrinkingCapacityOrder) {
  HierarchyConfig c = e870_hierarchy();
  c.l2_bytes = c.l3_bytes * 2;
  const AuditReport report = ModelAudit::hierarchy(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("hierarchy.capacity-order")) << report.to_string();
}

TEST(ModelAudit, RejectsUntileableGeometry) {
  HierarchyConfig c = e870_hierarchy();
  c.l1_bytes = 64 * 1024 + 128;  // not a whole number of sets
  const AuditReport report = ModelAudit::hierarchy(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("hierarchy.geometry")) << report.to_string();
}

TEST(ModelAudit, RejectsUntileableL4AsANamedError) {
  // An L4 that is not a whole number of 16-way sets would throw from
  // the cache constructor; the audit names it first.
  arch::SystemSpec spec = arch::e870();
  spec.centaur.l4_bytes = common::mib(16) + 128;
  const AuditReport report =
      ModelAudit::machine(spec, MemBandwidthParams{}, NocParams{});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("hierarchy.geometry")) << report.to_string();
  EXPECT_NE(report.to_string().find("L4"), std::string::npos);
}

TEST(ModelAudit, RejectsUntileableVictimPool) {
  HierarchyConfig c = e870_hierarchy();
  c.chip_cores = 2;
  c.l3_bytes = 8 * 128;  // one 8-way L3 set; half a 16-way victim set
  c.l2_bytes = 4 * 128;
  c.l1_bytes = 2 * 128;
  c.l1_ways = c.l2_ways = 2;
  const AuditReport report = ModelAudit::hierarchy(c);
  EXPECT_TRUE(report.has("hierarchy.geometry")) << report.to_string();
  EXPECT_NE(report.to_string().find("victim pool"), std::string::npos);
}

TEST(ModelAudit, DramLatencyIsTheNocLocalLatency) {
  // One number: the probe's DRAM service latency is the NoC's local
  // DRAM latency, so a spec cannot state two.  A local DRAM latency
  // below the L4's breaks the hierarchy's latency order.
  NocParams noc;
  noc.local_dram_latency_ns = 50.0;
  const AuditReport report =
      ModelAudit::machine(arch::e870(), MemBandwidthParams{}, noc);
  EXPECT_TRUE(report.has("hierarchy.latency-order")) << report.to_string();
  noc.local_dram_latency_ns = 150.0;
  EXPECT_TRUE(
      ModelAudit::machine(arch::e870(), MemBandwidthParams{}, noc).ok());
  EXPECT_EQ(Machine(arch::e870(), MemBandwidthParams{}, noc)
                .hierarchy()
                .latency.dram_ns,
            150.0);
}

TEST(ModelAudit, RejectsEratOutreachingTlb) {
  TlbConfig c;
  c.erat_entries = 4096;  // reaches past the 2048-entry TLB behind it
  const AuditReport report = ModelAudit::tlb(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("tlb.reach-order")) << report.to_string();
}

TEST(ModelAudit, RejectsInvertedTlbPenalties) {
  TlbConfig c;
  c.erat_miss_ns = 50.0;  // dearer than the 42 ns full walk
  const AuditReport report = ModelAudit::tlb(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("tlb.penalty-order")) << report.to_string();
}

TEST(ModelAudit, RejectsRaggedTlbSets) {
  TlbConfig c;
  c.tlb_entries = 2049;  // not divisible into 4-way sets
  const AuditReport report = ModelAudit::tlb(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("tlb.geometry")) << report.to_string();
}

TEST(ModelAudit, RejectsOutOfRangeDscr) {
  PrefetchConfig c;
  c.dscr = 9;
  const AuditReport report = ModelAudit::prefetch(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("prefetch.dscr-range")) << report.to_string();
}

TEST(ModelAudit, RejectsBrokenCentaurLinkRatio) {
  arch::SystemSpec spec = arch::e870();
  spec.centaur.write_link_gbs = spec.centaur.read_link_gbs;  // 1:1
  const AuditReport report = ModelAudit::bandwidth(spec, MemBandwidthParams{});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("mem.link-ratio")) << report.to_string();
}

TEST(ModelAudit, RejectsEfficiencyAboveOne) {
  MemBandwidthParams p;
  p.read_link_eff = 1.2;  // a link cannot deliver more than its wire rate
  const AuditReport report = ModelAudit::bandwidth(arch::e870(), p);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("mem.efficiency-range")) << report.to_string();
}

TEST(ModelAudit, RejectsRandomLatencyAboveStreamLatency) {
  MemBandwidthParams p;
  p.random_latency_ns = 200.0;  // unloaded cannot exceed loaded
  const AuditReport report = ModelAudit::bandwidth(arch::e870(), p);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("mem.latency-order")) << report.to_string();
}

TEST(ModelAudit, RejectsSubUnityHopAmplification) {
  NocParams p;
  p.hop_amplification = 0.9;  // multi-hop cheaper than single-hop
  const AuditReport report = ModelAudit::noc(p);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("noc.efficiency-range")) << report.to_string();
}

TEST(ModelAudit, RejectsL4PastTheProcessorAttach) {
  // Eight 64 MB Centaur L4s make 512 MB per chip; a POWER8 attaches at
  // most 128 MB.
  arch::SystemSpec spec = arch::e870();
  spec.centaur.l4_bytes = common::mib(64);
  const AuditReport report = ModelAudit::system(spec);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("system.l4-attach")) << report.to_string();
  // At the limit is legal: every preset, and 4 x 32 MB on the
  // checked-in e870-centaur4 spec.
  for (const std::string& name : machine_names())
    EXPECT_TRUE(machine_spec(name).audit().diagnostics.empty()) << name;
  const MachineSpec at_limit = load_machine_spec(
      std::string(P8_TEST_SPEC_DIR) + "/e870-centaur4-l4-32m.json");
  EXPECT_EQ(at_limit.system.centaurs_per_chip * at_limit.system.centaur.l4_bytes,
            at_limit.system.processor.max_l4_bytes);
  EXPECT_TRUE(at_limit.audit().diagnostics.empty())
      << at_limit.audit().to_string();
}

TEST(ModelAudit, RejectsImpossibleSmtWidth) {
  arch::SystemSpec spec = arch::e870();
  spec.processor.core.smt_threads = 3;
  const AuditReport report = ModelAudit::system(spec);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("system.smt")) << report.to_string();
}

TEST(ModelAudit, RejectsLineSizeDisagreement) {
  ProbeConfig c = e870_probe();
  c.prefetch.line_bytes = 64;  // hierarchy says 128
  const AuditReport report = ModelAudit::probe_config(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("probe.line-bytes")) << report.to_string();
}

TEST(ModelAudit, RejectsNegativeProbeTime) {
  ProbeConfig c = e870_probe();
  c.remote_extra_ns = -1.0;
  const AuditReport report = ModelAudit::probe_config(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("probe.negative-time")) << report.to_string();
}

// ------------------------------------------------ severities & report ----

TEST(ModelAudit, WarningsReportButDoNotGate) {
  arch::SystemSpec spec = arch::e870();
  spec.clock_ghz = 10.0;  // implausible but simulable
  const AuditReport report = ModelAudit::system(spec);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(report.has("system.clock"));
  EXPECT_EQ(report.error_count(), 0u);
  EXPECT_EQ(report.warning_count(), 1u);
}

TEST(ModelAudit, SlowPageWalkIsAWarning) {
  ProbeConfig c = e870_probe();
  c.tlb.walk_ns = 200.0;  // slower than DRAM: suspicious, not fatal
  const AuditReport report = ModelAudit::probe_config(c);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(report.has("probe.walk-vs-dram"));
}

TEST(ModelAudit, ReportAggregatesEveryViolationAtOnce) {
  HierarchyConfig c = e870_hierarchy();
  std::swap(c.latency.l2_ns, c.latency.l3_local_ns);
  c.l1_bytes = 96 * 1024;
  const AuditReport report = ModelAudit::hierarchy(c);
  // Both problems surface in one pass — the audit never throws on the
  // first hit, so the user sees the full damage list.
  EXPECT_TRUE(report.has("hierarchy.latency-order"));
  EXPECT_TRUE(report.has("hierarchy.set-power-of-two"));
  EXPECT_GE(report.error_count(), 2u);
}

TEST(ModelAudit, MergeConcatenatesDiagnostics) {
  AuditReport a, b;
  a.add(AuditSeverity::kError, "x.one", "first");
  b.add(AuditSeverity::kWarning, "x.two", "second");
  a.merge(b);
  EXPECT_EQ(a.diagnostics.size(), 2u);
  EXPECT_TRUE(a.has("x.one"));
  EXPECT_TRUE(a.has("x.two"));
  EXPECT_EQ(a.error_count(), 1u);
  EXPECT_EQ(a.warning_count(), 1u);
}

TEST(ModelAudit, ToStringNamesRuleAndSeverity) {
  AuditReport r;
  r.add(AuditSeverity::kError, "hierarchy.latency-order", "inverted");
  const std::string s = r.to_string();
  EXPECT_NE(s.find("error"), std::string::npos);
  EXPECT_NE(s.find("[hierarchy.latency-order]"), std::string::npos);
  EXPECT_NE(s.find("inverted"), std::string::npos);
}

}  // namespace
}  // namespace p8::sim
