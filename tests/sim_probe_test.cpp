// Tests for the event-driven latency probe: service charging, prefetch
// residuals, TLB penalties and SMP hop extras.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "arch/spec.hpp"
#include "common/units.hpp"
#include "proptest.hpp"
#include "sim/counters.hpp"
#include "sim/machine/latency_probe.hpp"
#include "sim/machine/machine.hpp"
#include "trace/replay.hpp"
#include "ubench/workloads.hpp"

namespace p8::sim {
namespace {

using common::kib;
using common::mib;

ProbeConfig base_config(int dscr = 1) {
  ProbeConfig c;
  c.hierarchy = HierarchyConfig::from_spec(arch::e870(), NocParams{});
  c.tlb.page_bytes = 16ull << 20;  // huge pages: no TLB noise
  c.prefetch.dscr = dscr;
  return c;
}

TEST(Probe, ColdAccessCostsDram) {
  LatencyProbe p(base_config());
  const auto t = p.access(0);
  EXPECT_EQ(t.level, ServiceLevel::kDram);
  // Huge page, first touch: walk penalty + DRAM.
  EXPECT_NEAR(t.latency_ns,
              base_config().hierarchy.latency.dram_ns + base_config().tlb.walk_ns,
              1e-9);
}

TEST(Probe, WarmAccessCostsL1) {
  LatencyProbe p(base_config());
  p.access(0);
  const auto t = p.access(0);
  EXPECT_EQ(t.level, ServiceLevel::kL1);
  EXPECT_NEAR(t.latency_ns, base_config().hierarchy.latency.l1_ns, 1e-9);
}

TEST(Probe, ClockAdvancesByLatency) {
  LatencyProbe p(base_config());
  const double before = p.now_ns();
  const auto t = p.access(0);
  EXPECT_NEAR(p.now_ns() - before, t.latency_ns, 1e-9);
}

TEST(Probe, ComputeTimeAdvancesClock) {
  auto cfg = base_config();
  cfg.compute_per_access_ns = 50.0;
  LatencyProbe p(cfg);
  const auto t = p.access(0);
  EXPECT_NEAR(p.now_ns(), t.latency_ns + 50.0, 1e-9);
}

TEST(Probe, SequentialChaseSettlesAtResidual) {
  // With DSCR depth d, a dependent sequential chase settles at
  // dram/(d+1) per line (steady-state pipelining).
  auto cfg = base_config(/*dscr=*/7);
  LatencyProbe p(cfg);
  const int depth = cfg.prefetch.depth_lines();
  // Warm-up past detection.
  for (int i = 0; i < 200; ++i) p.access(static_cast<std::uint64_t>(i) * 128);
  const double t0 = p.now_ns();
  const int n = 1000;
  for (int i = 200; i < 200 + n; ++i)
    p.access(static_cast<std::uint64_t>(i) * 128);
  const double avg = (p.now_ns() - t0) / n;
  const double expected =
      cfg.hierarchy.latency.dram_ns / (depth + 1);
  EXPECT_NEAR(avg, expected, expected * 0.25 + 1.0);
}

TEST(Probe, DeeperPrefetchIsFaster) {
  double prev = 1e9;
  for (const int dscr : {1, 2, 4, 7}) {
    LatencyProbe p(base_config(dscr));
    for (int i = 0; i < 100; ++i)
      p.access(static_cast<std::uint64_t>(i) * 128);
    const double t0 = p.now_ns();
    for (int i = 100; i < 600; ++i)
      p.access(static_cast<std::uint64_t>(i) * 128);
    const double avg = (p.now_ns() - t0) / 500.0;
    EXPECT_LT(avg, prev) << "dscr " << dscr;
    prev = avg;
  }
}

TEST(Probe, PrefetchedAccessesAreFlagged) {
  LatencyProbe p(base_config(7));
  int flagged = 0;
  for (int i = 0; i < 100; ++i)
    flagged += p.access(static_cast<std::uint64_t>(i) * 128).prefetched;
  EXPECT_GT(flagged, 80);
}

TEST(Probe, RemoteExtraChargedOnDram) {
  auto cfg = base_config();
  cfg.remote_extra_ns = 118.0;
  LatencyProbe p(cfg);
  const auto t = p.access(0);
  EXPECT_NEAR(t.latency_ns,
              cfg.hierarchy.latency.dram_ns + cfg.tlb.walk_ns + 118.0, 1e-9);
  // Cached accesses do not pay the hop.
  const auto t2 = p.access(0);
  EXPECT_NEAR(t2.latency_ns, cfg.hierarchy.latency.l1_ns, 1e-9);
}

TEST(Probe, SmallPagesPayTlbPenalties) {
  auto cfg = base_config();
  cfg.tlb.page_bytes = 64 * 1024;
  LatencyProbe small(cfg);
  LatencyProbe huge(base_config());
  // Touch one line in each of 200 distinct 64 KB pages, twice.
  double small_total = 0.0;
  double huge_total = 0.0;
  for (int pass = 0; pass < 2; ++pass)
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t addr = static_cast<std::uint64_t>(i) * 64 * 1024;
      const double a = small.access(addr).latency_ns;
      const double b = huge.access(addr).latency_ns;
      if (pass == 1) {
        small_total += a;
        huge_total += b;
      }
    }
  // 200 x 64 KB pages overflow the 48-entry ERAT; 13 MB of huge pages
  // do not.
  EXPECT_GT(small_total, huge_total);
}

TEST(Probe, DcbtHintCoversShortArrays) {
  // Two probes scanning many short arrays at random positions; the
  // DCBT one must be faster.
  auto cfg = base_config(/*dscr=*/0);
  LatencyProbe plain(cfg);
  LatencyProbe hinted(cfg);
  const std::uint64_t kBlock = 8 * 128;  // 8 lines
  for (int b = 0; b < 200; ++b) {
    // Spread blocks far apart so streams cannot chain across blocks.
    const std::uint64_t base =
        (static_cast<std::uint64_t>(b) * 7919 % 100000) * 64 * 1024;
    hinted.dcbt_hint(base, kBlock);
    for (int l = 0; l < 8; ++l) {
      plain.access(base + static_cast<std::uint64_t>(l) * 128);
      hinted.access(base + static_cast<std::uint64_t>(l) * 128);
    }
  }
  EXPECT_LT(hinted.now_ns(), plain.now_ns() * 0.85);
}

TEST(Probe, ResetRestoresColdState) {
  LatencyProbe p(base_config());
  p.access(0);
  p.reset();
  EXPECT_EQ(p.now_ns(), 0.0);
  EXPECT_EQ(p.access(0).level, ServiceLevel::kDram);
}

TEST(Machine, ProbeFactoryWiresRemoteLatency) {
  const Machine m = Machine(arch::e870());
  ProbeOptions local;
  ProbeOptions remote;
  remote.home_chip = 4;
  auto lp = m.probe(local);
  auto rp = m.probe(remote);
  const double l = lp.access(0).latency_ns;
  const double r = rp.access(0).latency_ns;
  EXPECT_NEAR(r - l, m.topology().min_latency_ns(4, 0), 1e-9);
}

// ---------------------------------------------------------------------
// access_batch() is an access() loop plus host-side set hints, so it
// must leave the probe in exactly the state that loop produces —
// virtual clock double for double and every counter in the stack —
// for any stream and any chunking, and its BatchStats must be what
// the loop's AccessTimings say they are.

/// The reference sink: one access() per load, cut into the chunks
/// ChunkedReplayer cuts (a full buffer, a hint, a stop, a mark), with
/// the BatchStats derived from the AccessTimings.  The last-translation
/// register is the previous load's page: every load translates, hints
/// do not.
class AccessLoop final : public trace::TraceSink {
 public:
  AccessLoop(LatencyProbe& probe, std::size_t chunk)
      : probe_(probe), chunk_(chunk) {}

  void access(std::uint64_t addr) override {
    if (pending_ == 0) chunk_start_ns_ = probe_.now_ns();
    const std::uint64_t page = addr / probe_.config().tlb.page_bytes;
    const AccessTiming t = probe_.access(addr);
    ++stats.accesses;
    stats.l1_fast_hits +=
        page == last_page_ && t.level == ServiceLevel::kL1 && !t.prefetched;
    stats.prefetched_hits += t.prefetched;
    last_page_ = page;
    if (++pending_ == chunk_) cut();
  }
  void dcbt_hint(std::uint64_t start, std::uint64_t length_bytes,
                 bool descending) override {
    cut();
    probe_.dcbt_hint(start, length_bytes, descending);
  }
  void dcbt_stop(std::uint64_t addr) override {
    cut();
    probe_.dcbt_stop(addr);
  }
  void mark(std::uint64_t) override { cut(); }

  /// Closes the open chunk; call once after the last record.
  void cut() {
    if (pending_ != 0) stats.busy_ns += probe_.now_ns() - chunk_start_ns_;
    pending_ = 0;
  }

  BatchStats stats;

 private:
  LatencyProbe& probe_;
  std::size_t chunk_;
  std::size_t pending_ = 0;
  double chunk_start_ns_ = 0.0;
  std::uint64_t last_page_ = ~std::uint64_t{0};
};

TEST(ProbeBatchProperty, BatchEqualsAccessLoop) {
  const Machine m = Machine(arch::e870());
  const std::uint64_t line = m.spec().processor.cache_line_bytes;
  P8_PROP(gen, 64, 0xba7c4ed) {
    // One of the drivers' streams: a random, forward- or backward-
    // stride chase (L1-resident to DRAM-bound), a strided scan, or a
    // random block walk with or without DCBT hints.
    const int shape = gen.int_range(0, 2);
    ubench::ChaseOptions chase;
    chase.working_set_bytes =
        gen.pick<std::uint64_t>({kib(16), kib(32), kib(256), mib(4)});
    chase.pattern = gen.pick({ubench::ChasePattern::kRandom,
                              ubench::ChasePattern::kForwardStride,
                              ubench::ChasePattern::kBackwardStride});
    chase.stride_lines = gen.range(1, 4);
    chase.seed = gen.u64();
    chase.warm_accesses = chase.measure_accesses = gen.range(1000, 3000);
    ubench::StrideOptions stride;
    stride.stride_lines = gen.pick<std::uint64_t>({1, 2, 256});
    stride.accesses = gen.range(2000, 6000);
    ubench::DcbtOptions dcbt;
    dcbt.block_bytes = gen.pick<std::uint64_t>({2048, 8192});
    dcbt.total_bytes = gen.pick<std::uint64_t>({kib(512), mib(1)});
    dcbt.use_dcbt = gen.chance(0.5);
    dcbt.seed = gen.u64();
    const auto emit = [&](trace::TraceSink& sink) {
      if (shape == 0)
        ubench::emit_chase_trace(line, chase, sink);
      else if (shape == 1)
        ubench::emit_stride_trace(line, stride, sink);
      else
        ubench::emit_dcbt_trace(line, dcbt, sink);
    };
    ProbeOptions options;
    // 4 KB pages spread an L1-resident chase over several pages, so L1
    // hits both on and off the last-translated page occur.
    options.page_bytes = gen.pick<std::uint64_t>({kib(4), kib(64), mib(16)});
    options.dscr = gen.pick({0, 1, 2, 7});  // 1: engine off
    const std::size_t chunk = gen.pick<std::size_t>(
        {1, 7, static_cast<std::size_t>(gen.range(2, 1000)), 1u << 16});

    CounterRegistry loop_counters, batch_counters;
    options.counters = &loop_counters;
    LatencyProbe loop_probe = m.probe(options);
    AccessLoop loop(loop_probe, chunk);
    emit(loop);
    loop.cut();
    options.counters = &batch_counters;
    LatencyProbe batch_probe = m.probe(options);
    trace::ChunkedReplayer batch(batch_probe, chunk);
    emit(batch);
    batch.flush();

    EXPECT_EQ(batch_probe.now_ns(), loop_probe.now_ns()) << "chunk=" << chunk;
    EXPECT_EQ(batch_counters.to_csv(), loop_counters.to_csv())
        << "chunk=" << chunk;
    EXPECT_EQ(batch.stats().accesses, loop.stats.accesses);
    EXPECT_EQ(batch.stats().l1_fast_hits, loop.stats.l1_fast_hits);
    EXPECT_EQ(batch.stats().prefetched_hits, loop.stats.prefetched_hits);
    EXPECT_EQ(batch.stats().busy_ns, loop.stats.busy_ns);
  }
}

// After every L1-missing access the look-ahead reads the address 8
// ahead.  Each batch below is a vector holding exactly n DRAM-missing
// addresses, so under AddressSanitizer a read past the last one lands
// in the allocation's redzone.
TEST(ProbeBatch, LookaheadStaysInsideTheChunk) {
  for (std::size_t n = 1; n <= 17; ++n) {
    std::vector<std::uint64_t> addrs(n);
    for (std::size_t i = 0; i < n; ++i) addrs[i] = i * mib(1);
    LatencyProbe loop(base_config());
    for (const std::uint64_t addr : addrs)
      ASSERT_EQ(loop.access(addr).level, ServiceLevel::kDram) << "n=" << n;
    LatencyProbe batch(base_config());
    BatchStats stats;
    batch.access_batch(addrs, stats);
    EXPECT_EQ(batch.now_ns(), loop.now_ns()) << "n=" << n;
    EXPECT_EQ(stats.accesses, n);
    EXPECT_EQ(stats.l1_fast_hits, 0u);
    EXPECT_EQ(stats.prefetched_hits, 0u);
    EXPECT_EQ(stats.busy_ns, loop.now_ns());
  }
}

TEST(Machine, ProbeRejectsBadChips) {
  const Machine m = Machine(arch::e870());
  ProbeOptions bad;
  bad.home_chip = 99;
  EXPECT_THROW(m.probe(bad), std::invalid_argument);
}

}  // namespace
}  // namespace p8::sim
