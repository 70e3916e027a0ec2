// Tests for the cache, TLB and hierarchy simulators.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "arch/spec.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "proptest.hpp"
#include "sim/cache/cache.hpp"
#include "sim/cache/hierarchy.hpp"
#include "sim/cache/tlb.hpp"

namespace p8::sim {

/// The stamp clock, for the wrap test below (a friend of SetAssocCache).
struct CacheClockAccess {
  static std::uint32_t get(const SetAssocCache& c) { return c.clock_; }
  static void set(SetAssocCache& c, std::uint32_t clock) { c.clock_ = clock; }
};

namespace {

using common::kib;
using common::mib;

// -------------------------------------------------------- SetAssocCache ----

TEST(Cache, MissThenHit) {
  SetAssocCache c(kib(1), 2, 64);
  EXPECT_FALSE(c.access(0).hit);
  EXPECT_TRUE(c.access(0).hit);
  EXPECT_TRUE(c.access(63).hit);   // same line
  EXPECT_FALSE(c.access(64).hit);  // next line
}

TEST(Cache, LruEvictsOldest) {
  // 2-way, one set of interest: lines mapping to set 0 are multiples
  // of sets*line.
  SetAssocCache c(kib(1), 2, 64);  // 8 sets
  const std::uint64_t stride = 8 * 64;
  c.access(0 * stride);
  c.access(1 * stride);
  c.access(0 * stride);            // 0 is now MRU
  const auto r = c.access(2 * stride);
  EXPECT_FALSE(r.hit);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, 1 * stride);  // LRU way went
  EXPECT_TRUE(c.probe(0 * stride));
  EXPECT_FALSE(c.probe(1 * stride));
}

TEST(Cache, ProbeDoesNotTouch) {
  SetAssocCache c(kib(1), 2, 64);
  const std::uint64_t stride = 8 * 64;
  c.access(0 * stride);
  c.access(1 * stride);
  // Probing 0 must NOT refresh it...
  EXPECT_TRUE(c.probe(0 * stride));
  c.access(2 * stride);  // ...so 0 (older) is evicted.
  EXPECT_FALSE(c.probe(0 * stride));
  EXPECT_TRUE(c.probe(1 * stride));
}

TEST(Cache, InstallReturnsEviction) {
  SetAssocCache c(128, 1, 64);  // 2 sets, direct mapped
  EXPECT_EQ(c.install(0), std::nullopt);
  const auto ev = c.install(128);  // same set as 0
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(*ev, 0u);
}

TEST(Cache, InstallExistingRefreshes) {
  SetAssocCache c(kib(1), 2, 64);
  const std::uint64_t stride = 8 * 64;
  c.install(0 * stride);
  c.install(1 * stride);
  c.install(0 * stride);  // refresh, no eviction
  const auto ev = c.install(2 * stride);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(*ev, 1 * stride);
}

TEST(Cache, InvalidateRemoves) {
  SetAssocCache c(kib(1), 2, 64);
  c.access(0);
  EXPECT_TRUE(c.invalidate(0));
  EXPECT_FALSE(c.probe(0));
  EXPECT_FALSE(c.invalidate(0));
}

TEST(Cache, ResidentLinesAndClear) {
  SetAssocCache c(kib(1), 2, 64);
  for (int i = 0; i < 5; ++i) c.access(static_cast<std::uint64_t>(i) * 64);
  EXPECT_EQ(c.resident_lines(), 5u);
  c.clear();
  EXPECT_EQ(c.resident_lines(), 0u);
}

TEST(Cache, CapacityGeometryValidation) {
  EXPECT_THROW(SetAssocCache(100, 2, 64), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(kib(1), 2, 60), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(kib(1), 0, 64), std::invalid_argument);
}

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(CacheGeometry, WorkingSetWithinCapacityAlwaysHitsAfterWarm) {
  const auto [capacity, ways] = GetParam();
  SetAssocCache c(capacity, ways, 128);
  const std::uint64_t lines = capacity / 128;
  // Sequential fill: maps evenly across sets, fits exactly.
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 128);
  for (std::uint64_t i = 0; i < lines; ++i)
    EXPECT_TRUE(c.access(i * 128).hit) << "line " << i;
}

TEST_P(CacheGeometry, WorkingSetTwiceCapacityAlwaysMissesCyclically) {
  const auto [capacity, ways] = GetParam();
  SetAssocCache c(capacity, ways, 128);
  const std::uint64_t lines = 2 * capacity / 128;
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t i = 0; i < lines; ++i) {
      const bool hit = c.access(i * 128).hit;
      if (pass == 1) EXPECT_FALSE(hit) << "line " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::tuple{kib(64), 8u}, std::tuple{kib(512), 8u},
                      std::tuple{kib(64), 1u}, std::tuple{kib(64), 16u},
                      std::tuple{mib(8), 8u}));

// ------------------------------------------------------------------ TLB ----

TEST(Tlb, EratHitAfterFirstTouch) {
  Tlb tlb(TlbConfig{});
  EXPECT_NE(tlb.translate(0), TlbOutcome::kEratHit);
  EXPECT_EQ(tlb.translate(0), TlbOutcome::kEratHit);
  EXPECT_EQ(tlb.translate(63 * 1024), TlbOutcome::kEratHit);  // same page
}

TEST(Tlb, FirstTouchWalks) {
  Tlb tlb(TlbConfig{});
  EXPECT_EQ(tlb.translate(0), TlbOutcome::kWalk);
}

TEST(Tlb, EratReachIs3MB) {
  // 48 entries x 64 KB pages = 3 MB: a 47-page loop fits, a 64-page
  // loop thrashes the ERAT but still hits the TLB.
  TlbConfig cfg;
  Tlb tlb(cfg);
  const std::uint64_t page = cfg.page_bytes;
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t p = 0; p < 47; ++p) {
      const auto out = tlb.translate(p * page);
      if (pass > 0) EXPECT_EQ(out, TlbOutcome::kEratHit);
    }
  Tlb tlb2(cfg);
  int erat_hits = 0;
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t p = 0; p < 64; ++p) {
      const auto out = tlb2.translate(p * page);
      if (pass == 2) {
        EXPECT_NE(out, TlbOutcome::kWalk);
        erat_hits += out == TlbOutcome::kEratHit ? 1 : 0;
      }
    }
  EXPECT_EQ(erat_hits, 0);  // cyclic sweep over 64 pages defeats 48-LRU
}

TEST(Tlb, HugePagesExtendReach) {
  TlbConfig cfg;
  cfg.page_bytes = 16ull << 20;
  Tlb tlb(cfg);
  // 100 MB working set = 7 huge pages: trivially inside the ERAT.
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t p = 0; p < 7; ++p) {
      const auto out = tlb.translate(p * cfg.page_bytes);
      if (pass == 1) EXPECT_EQ(out, TlbOutcome::kEratHit);
    }
}

TEST(Tlb, PenaltiesOrdered) {
  Tlb tlb(TlbConfig{});
  EXPECT_EQ(tlb.penalty_ns(TlbOutcome::kEratHit), 0.0);
  EXPECT_GT(tlb.penalty_ns(TlbOutcome::kTlbHit), 0.0);
  EXPECT_GT(tlb.penalty_ns(TlbOutcome::kWalk),
            tlb.penalty_ns(TlbOutcome::kTlbHit));
}

/// The ERAT as a one-set, erat_entries-way SetAssocCache over pages in
/// front of the TLB cache, beside a last-translation register, with
/// touch then install on a walk: the reference that Tlb's page list must
/// reproduce outcome for outcome.
class CacheErat {
 public:
  explicit CacheErat(const TlbConfig& c)
      : erat_(std::uint64_t{c.erat_entries} * c.page_bytes, c.erat_entries,
              c.page_bytes),
        tlb_(std::uint64_t{c.tlb_entries} * c.page_bytes, c.tlb_ways,
             c.page_bytes),
        page_bytes_(c.page_bytes) {}

  bool last_page_matches(std::uint64_t addr) const {
    return addr / page_bytes_ == last_page_;
  }

  TlbOutcome translate(std::uint64_t addr) {
    last_page_ = addr / page_bytes_;
    if (erat_.touch(addr)) return TlbOutcome::kEratHit;
    erat_.install(addr);
    if (tlb_.touch(addr)) return TlbOutcome::kTlbHit;
    tlb_.install(addr);
    return TlbOutcome::kWalk;
  }

  void clear() {
    erat_.clear();
    tlb_.clear();
    last_page_ = kNone;
  }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  SetAssocCache erat_;
  SetAssocCache tlb_;
  std::uint64_t page_bytes_;
  std::uint64_t last_page_ = kNone;
};

TEST(TlbProperty, PageListMatchesOneSetCache) {
  // Every ERAT size, page size and TLB size below, under random page
  // streams spanning inside, exactly at and 40x past the ERAT's reach,
  // with a clear() partway through.  A quarter of the accesses stay on
  // the previous page, the last-translation register's case.
  P8_PROP(gen, 4, 0x5e7a11) {
    for (const unsigned entries : {1u, 2u, 48u})
      for (const std::uint64_t page : {kib(4), kib(64), mib(16)})
        for (const unsigned tlb_entries : {64u, 2048u})
          for (const std::uint64_t span :
               {std::uint64_t{std::max(1u, entries - 1)},
                std::uint64_t{entries}, std::uint64_t{40} * entries}) {
            TlbConfig cfg;
            cfg.erat_entries = entries;
            cfg.page_bytes = page;
            cfg.tlb_entries = tlb_entries;
            Tlb tlb(cfg);
            CounterRegistry reg;
            tlb.attach_counters(&reg, "t");
            CacheErat ref(cfg);
            const std::uint64_t base = gen.range(0, 1u << 20);
            const int ops = 1500;
            const int clear_at = gen.int_range(0, ops - 1);
            std::uint64_t addr = 0;
            std::uint64_t outcomes[3] = {};
            for (int op = 0; op < ops && !HasFailure(); ++op) {
              if (op == clear_at) {
                tlb.clear();
                ref.clear();
              }
              const std::uint64_t p = gen.chance(0.25)
                                          ? addr / page
                                          : base + gen.range(0, span - 1);
              addr = p * page + gen.range(0, page - 1);
              ASSERT_EQ(tlb.last_page_matches(addr),
                        ref.last_page_matches(addr))
                  << "op " << op << ", " << entries << " entries, span "
                  << span << " pages of " << page << " B";
              const TlbOutcome out = tlb.translate(addr);
              ASSERT_EQ(out, ref.translate(addr))
                  << "op " << op << ", " << entries << " entries, span "
                  << span << " pages of " << page << " B";
              ++outcomes[static_cast<int>(out)];
            }
            EXPECT_EQ(reg.value("t.erat.hit"), outcomes[0]);
            EXPECT_EQ(reg.value("t.tlb.hit"), outcomes[1]);
            EXPECT_EQ(reg.value("t.walk"), outcomes[2]);
          }
  }
}

// ------------------------------------------------------------- hierarchy ---

HierarchyConfig e870_hierarchy() {
  return HierarchyConfig::from_spec(arch::e870(), NocParams{});
}

TEST(Hierarchy, FromSpecGeometry) {
  const auto c = e870_hierarchy();
  EXPECT_EQ(c.l1_bytes, kib(64));
  EXPECT_EQ(c.l2_bytes, kib(512));
  EXPECT_EQ(c.l3_bytes, mib(8));
  EXPECT_EQ(c.chip_cores, 8);
  EXPECT_EQ(c.l4_bytes, 8 * mib(16));  // eight Centaurs x 16 MB
  EXPECT_EQ(c.line_bytes, 128u);
  EXPECT_EQ(c.victim_bytes(), 7 * mib(8));
  EXPECT_EQ(c.chip_l3_bytes(), 8 * mib(8));
  EXPECT_EQ(c.latency.dram_ns, NocParams{}.local_dram_latency_ns);
}

TEST(Hierarchy, FromSpecReadsTheL4SizeAndDramLatency) {
  arch::SystemSpec spec = arch::e870();
  spec.centaurs_per_chip = 4;
  spec.centaur.l4_bytes = mib(32);
  NocParams noc;
  noc.local_dram_latency_ns = 110.0;
  const auto c = HierarchyConfig::from_spec(spec, noc);
  EXPECT_EQ(c.l4_bytes, 4 * mib(32));
  EXPECT_EQ(c.latency.dram_ns, 110.0);
  // The simulated L4 really is that large: a 96 MB stream past the
  // 64 MB chip L3 still finds its first line in the L4.
  ChipMemoryModel m(c);
  for (std::uint64_t a = 0; a <= mib(96); a += 128) m.access(a);
  EXPECT_EQ(m.access(0), ServiceLevel::kL4);
}

TEST(Hierarchy, FirstAccessComesFromDram) {
  ChipMemoryModel m(e870_hierarchy());
  EXPECT_EQ(m.access(0), ServiceLevel::kDram);
}

TEST(Hierarchy, SecondAccessHitsL1) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  EXPECT_EQ(m.access(0), ServiceLevel::kL1);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  // Push 0 out of the 64 KB L1 by streaming 128 KB, staying inside L2.
  for (std::uint64_t a = 128; a <= kib(128); a += 128) m.access(a);
  EXPECT_EQ(m.access(0), ServiceLevel::kL2);
}

TEST(Hierarchy, L3HitAfterL2Eviction) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  for (std::uint64_t a = 128; a <= mib(1); a += 128) m.access(a);
  EXPECT_EQ(m.access(0), ServiceLevel::kL3Local);
}

TEST(Hierarchy, VictimPoolCatchesL3Evictions) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  // Stream 16 MB: evicts line 0 from the local 8 MB L3 into the
  // lateral victim pool (the other cores' 56 MB).
  for (std::uint64_t a = 128; a <= mib(16); a += 128) m.access(a);
  EXPECT_EQ(m.access(0), ServiceLevel::kL3Remote);
}

TEST(Hierarchy, VictimDisabledFallsToL4) {
  auto cfg = e870_hierarchy();
  cfg.victim_l3 = false;
  ChipMemoryModel m(cfg);
  m.access(0);
  for (std::uint64_t a = 128; a <= mib(16); a += 128) m.access(a);
  // Without lateral cast-out the line is gone from SRAM but the
  // memory-side L4 still holds it.
  EXPECT_EQ(m.access(0), ServiceLevel::kL4);
}

TEST(Hierarchy, RemoteHitMigratesHome) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  for (std::uint64_t a = 128; a <= mib(16); a += 128) m.access(a);
  ASSERT_EQ(m.access(0), ServiceLevel::kL3Remote);
  EXPECT_EQ(m.access(0), ServiceLevel::kL1);  // migrated back up
}

TEST(Hierarchy, PrefetchedInstallHitsL1) {
  ChipMemoryModel m(e870_hierarchy());
  m.install_prefetched(1024);
  EXPECT_EQ(m.access(1024), ServiceLevel::kL1);
}

TEST(Hierarchy, LatenciesAreMonotone) {
  const HierarchyLatencies lat;
  EXPECT_LT(lat.of(ServiceLevel::kL1), lat.of(ServiceLevel::kL2));
  EXPECT_LT(lat.of(ServiceLevel::kL2), lat.of(ServiceLevel::kL3Local));
  EXPECT_LT(lat.of(ServiceLevel::kL3Local), lat.of(ServiceLevel::kL3Remote));
  EXPECT_LT(lat.of(ServiceLevel::kL3Remote), lat.of(ServiceLevel::kL4));
  EXPECT_LT(lat.of(ServiceLevel::kL4), lat.of(ServiceLevel::kDram));
}

TEST(Hierarchy, L4SavesOver30ns) {
  // Paper: "an L4 hit reduces the latency of an L3 miss by over 30 ns".
  const HierarchyLatencies lat;
  EXPECT_GT(lat.of(ServiceLevel::kDram) - lat.of(ServiceLevel::kL4), 30.0);
}

TEST(Hierarchy, LookupDoesNotMutate) {
  ChipMemoryModel m(e870_hierarchy());
  EXPECT_EQ(m.lookup(0), ServiceLevel::kDram);
  EXPECT_EQ(m.lookup(0), ServiceLevel::kDram);
  m.access(0);
  EXPECT_EQ(m.lookup(0), ServiceLevel::kL1);
}

TEST(Hierarchy, ClearResets) {
  ChipMemoryModel m(e870_hierarchy());
  m.access(0);
  m.clear();
  EXPECT_EQ(m.access(0), ServiceLevel::kDram);
}

// ------------------------------------------------------ write path ---------

/// A hierarchy whose `cache.*` events land in `registry`.
ChipMemoryModel counted_hierarchy(CounterRegistry& registry) {
  ChipMemoryModel m(e870_hierarchy());
  m.attach_counters(&registry);
  return m;
}

/// memlink.read.lines over memlink.write.lines: the read:write mix at
/// the Centaur links.
double link_read_to_write(const CounterRegistry& r) {
  return static_cast<double>(r.value("cache.memlink.read.lines")) /
         static_cast<double>(r.value("cache.memlink.write.lines"));
}

TEST(WritePath, StoreThroughL1NeverDirties) {
  CounterRegistry r;
  ChipMemoryModel m = counted_hierarchy(r);
  m.access(0);               // line cached
  m.access_write(0);         // store hits L1+L2
  // Stream far past every SRAM level; the only dirty copy was in L2,
  // so exactly one line crosses the write link when it finally leaves.
  for (std::uint64_t a = 128; a <= mib(80); a += 128) m.access(a);
  EXPECT_EQ(r.value("cache.memlink.write.lines"), 1u);
}

TEST(WritePath, WriteAllocateFetchesTheLine) {
  CounterRegistry r;
  ChipMemoryModel m = counted_hierarchy(r);
  const auto before = r.value("cache.memlink.read.lines");
  EXPECT_EQ(m.access_write(1 << 20), ServiceLevel::kDram);
  EXPECT_EQ(r.value("cache.memlink.read.lines"), before + 1);
  EXPECT_EQ(r.value("cache.stores"), 1u);
}

TEST(WritePath, RepeatedStoresStayInL2) {
  CounterRegistry r;
  ChipMemoryModel m = counted_hierarchy(r);
  m.access_write(0);
  const auto reads = r.value("cache.memlink.read.lines");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m.access_write(0), ServiceLevel::kL2);
  EXPECT_EQ(r.value("cache.memlink.read.lines"), reads);  // no refetch
  EXPECT_EQ(r.value("cache.memlink.write.lines"), 0u);    // not yet evicted
}

TEST(WritePath, CleanEvictionsCostNoWriteTraffic) {
  CounterRegistry r;
  ChipMemoryModel m = counted_hierarchy(r);
  // Read-only streaming far beyond every cache level.
  for (std::uint64_t a = 0; a <= mib(100); a += 128) m.access(a);
  EXPECT_EQ(r.value("cache.memlink.write.lines"), 0u);
  EXPECT_EQ(r.value("cache.dram.write.lines"), 0u);
  EXPECT_GT(r.value("cache.memlink.read.lines"), 0u);
}

TEST(WritePath, StreamCopyIsTwoToOneAtTheLinks) {
  // c[i] = a[i]: per line, one demand read + one write-allocate read
  // vs one eventual write-back — the mechanism behind the paper's
  // optimal 2:1 read:write ratio (Table III).  The ratio is measured
  // in steady state: a warm phase first fills the SRAM hierarchy with
  // dirty lines so the write-back pipeline is flowing, and the
  // registry is attached only after it.
  ChipMemoryModel m(e870_hierarchy());
  CounterRegistry steady;
  const std::uint64_t lines = mib(96) / 128;
  const std::uint64_t src = 0;
  const std::uint64_t dst = 1ull << 32;
  for (std::uint64_t l = 0; l < lines; ++l) {
    if (l == lines / 2) m.attach_counters(&steady);  // enter steady state
    m.access(src + l * 128);
    m.access_write(dst + l * 128);
  }
  ASSERT_GT(steady.value("cache.memlink.write.lines"), 0u);
  EXPECT_NEAR(link_read_to_write(steady), 2.0, 0.2);
}

TEST(WritePath, TriadIsThreeToOneAtTheLinks) {
  ChipMemoryModel m(e870_hierarchy());
  CounterRegistry steady;
  const std::uint64_t lines = mib(96) / 128;
  for (std::uint64_t l = 0; l < lines; ++l) {
    if (l == lines / 2) m.attach_counters(&steady);
    m.access((1ull << 32) + l * 128);
    m.access((2ull << 32) + l * 128);
    m.access_write((3ull << 32) + l * 128);
  }
  ASSERT_GT(steady.value("cache.memlink.write.lines"), 0u);
  EXPECT_NEAR(link_read_to_write(steady), 3.0, 0.3);
}

TEST(WritePath, CountersReset) {
  // A registry attached mid-run records only what follows: the
  // events before it went to the first registry.
  CounterRegistry first;
  ChipMemoryModel m = counted_hierarchy(first);
  m.access(0);
  m.access_write(128);
  CounterRegistry fresh;
  m.attach_counters(&fresh);
  EXPECT_EQ(fresh.value("cache.loads"), 0u);
  EXPECT_EQ(fresh.value("cache.stores"), 0u);
  EXPECT_EQ(fresh.value("cache.memlink.read.lines"), 0u);
  EXPECT_EQ(first.value("cache.loads"), 1u);
  EXPECT_EQ(first.value("cache.stores"), 1u);
  m.access(0);
  EXPECT_EQ(fresh.value("cache.loads"), 1u);
  EXPECT_EQ(first.value("cache.loads"), 1u);
}

TEST(WritePath, DirtyLineSurvivesRoundTripThroughL3) {
  CounterRegistry r;
  ChipMemoryModel m = counted_hierarchy(r);
  m.access_write(0);  // dirty in L2
  // Push it to L3 (1 MB stream), then touch it again: still no write
  // traffic has left the chip.
  for (std::uint64_t a = 128; a <= mib(1); a += 128) m.access(a);
  EXPECT_EQ(r.value("cache.memlink.write.lines"), 0u);
  EXPECT_EQ(m.access(0), ServiceLevel::kL3Local);
}

TEST(Cache, DirtyTrackingPrimitives) {
  SetAssocCache c(kib(1), 2, 64);
  EXPECT_FALSE(c.mark_dirty(0));  // not present
  c.install_line(0, false);
  EXPECT_FALSE(c.is_dirty(0));
  EXPECT_TRUE(c.mark_dirty(0));
  EXPECT_TRUE(c.is_dirty(0));
  // Refresh with clean does not clear dirty.
  c.install_line(0, false);
  EXPECT_TRUE(c.is_dirty(0));
  // Eviction reports dirty state.
  const std::uint64_t stride = 8 * 64;
  c.install_line(1 * stride, false);
  const auto ev = c.install_line(2 * stride, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 0u);
  EXPECT_TRUE(ev->dirty);
}

// ---------------------------------------------------------- fuzz / props --

TEST(CacheFuzz, RandomOpsPreserveInvariants) {
  // Random interleaving of access/install/invalidate/mark_dirty against
  // a reference map of resident lines.
  common::Xoshiro256 rng(99);
  SetAssocCache cache(kib(4), 4, 64);
  const std::uint64_t kLines = 256;  // 4x the capacity: plenty of churn
  std::set<std::uint64_t> resident;

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t addr = rng.bounded(kLines) * 64;
    switch (rng.bounded(4)) {
      case 0: {
        const auto r = cache.access(addr);
        EXPECT_EQ(r.hit, resident.count(addr / 64 * 64) > 0);
        resident.insert(addr);
        if (r.evicted) {
          EXPECT_EQ(resident.erase(*r.evicted), 1u) << "phantom eviction";
        }
        break;
      }
      case 1: {
        const auto ev = cache.install_line(addr, rng.bounded(2) == 0);
        resident.insert(addr);
        if (ev) EXPECT_EQ(resident.erase(ev->line), 1u);
        break;
      }
      case 2: {
        const bool was = cache.invalidate(addr);
        EXPECT_EQ(was, resident.erase(addr) == 1u);
        break;
      }
      default: {
        const bool found = cache.mark_dirty(addr);
        EXPECT_EQ(found, resident.count(addr) > 0);
        if (found) EXPECT_TRUE(cache.is_dirty(addr));
        break;
      }
    }
    ASSERT_EQ(cache.resident_lines(), resident.size());
    ASSERT_LE(cache.resident_lines(), kib(4) / 64);
  }
}

// ------------------------------------------------- 8-byte way layout ----

/// Test-local true-LRU reference: full line addresses and 64-bit
/// stamps, none of SetAssocCache's packing.  The packed 32-bit ways
/// must reproduce its every hit, victim and eviction.
class WideLru {
 public:
  WideLru(std::uint64_t sets, unsigned ways, std::uint64_t line_bytes)
      : sets_(sets), ways_(ways), line_bytes_(line_bytes), way_(sets * ways) {}

  bool touch(std::uint64_t addr) {
    Way* w = find(addr);
    if (w == nullptr) return false;
    w->stamp = ++clock_;
    return true;
  }

  std::optional<SetAssocCache::Eviction> install_line(std::uint64_t addr,
                                                      bool dirty) {
    if (Way* w = find(addr)) {
      w->stamp = ++clock_;
      w->dirty |= dirty;
      return std::nullopt;
    }
    Way& v = victim(addr);
    std::optional<SetAssocCache::Eviction> evicted;
    if (v.valid) evicted = SetAssocCache::Eviction{v.line, v.dirty};
    v = {true, dirty, line_of(addr), ++clock_};
    return evicted;
  }

  std::optional<bool> take(std::uint64_t addr) {
    Way* w = find(addr);
    if (w == nullptr) return std::nullopt;
    w->valid = false;
    return w->dirty;
  }

  bool invalidate(std::uint64_t addr) { return take(addr).has_value(); }
  bool probe(std::uint64_t addr) { return find(addr) != nullptr; }
  bool is_dirty(std::uint64_t addr) {
    const Way* w = find(addr);
    return w != nullptr && w->dirty;
  }

  /// Line an install of absent `addr` would evict, or kNoVictim.
  std::uint64_t victim_line(std::uint64_t addr) {
    const Way& v = victim(addr);
    return v.valid ? v.line : SetAssocCache::kNoVictim;
  }

  std::uint64_t resident_lines() const {
    std::uint64_t n = 0;
    for (const Way& w : way_) n += w.valid;
    return n;
  }

 private:
  struct Way {
    bool valid = false;
    bool dirty = false;
    std::uint64_t line = 0;  ///< line-aligned address
    std::uint64_t stamp = 0;
  };

  std::uint64_t line_of(std::uint64_t addr) const {
    return addr / line_bytes_ * line_bytes_;
  }
  Way* row(std::uint64_t addr) {
    return &way_[(addr / line_bytes_ % sets_) * ways_];
  }
  Way* find(std::uint64_t addr) {
    Way* r = row(addr);
    for (unsigned w = 0; w < ways_; ++w)
      if (r[w].valid && r[w].line == line_of(addr)) return &r[w];
    return nullptr;
  }
  /// First invalid way, else the least recently used.
  Way& victim(std::uint64_t addr) {
    Way* r = row(addr);
    Way* oldest = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
      if (!r[w].valid) return r[w];
      if (oldest == nullptr || r[w].stamp < oldest->stamp) oldest = &r[w];
    }
    return *oldest;
  }

  std::uint64_t sets_;
  unsigned ways_;
  std::uint64_t line_bytes_;
  std::vector<Way> way_;
  std::uint64_t clock_ = 0;
};

void expect_same_eviction(const std::optional<SetAssocCache::Eviction>& got,
                          const std::optional<SetAssocCache::Eviction>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got) {
    EXPECT_EQ(got->line, want->line);
    EXPECT_EQ(got->dirty, want->dirty);
  }
}

/// One random operation on both models: touch, install, the victim
/// pool's take-on-migrate, invalidate, touch_slot + install_line_at,
/// demand access, or the read-only probes.
void random_op(proptest::Gen& gen, const std::vector<std::uint64_t>& pool,
               SetAssocCache& cache, WideLru& ref) {
  const std::uint64_t addr = pool[gen.range(0, pool.size() - 1)];
  const bool dirty = gen.chance(0.3);
  switch (gen.range(0, 6)) {
    case 0:
      ASSERT_EQ(cache.touch(addr), ref.touch(addr));
      break;
    case 1:
      expect_same_eviction(cache.install_line(addr, dirty),
                           ref.install_line(addr, dirty));
      break;
    case 2:
      ASSERT_EQ(cache.take(addr), ref.take(addr));
      break;
    case 3:
      ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr));
      break;
    case 4: {
      SetAssocCache::Slot slot;
      const bool hit = cache.touch_slot(addr, slot);
      ASSERT_EQ(hit, ref.touch(addr));
      if (hit) break;
      ASSERT_EQ(cache.slot_victim_line(slot), ref.victim_line(addr));
      expect_same_eviction(cache.install_line_at(slot, addr, dirty),
                           ref.install_line(addr, dirty));
      break;
    }
    case 5: {
      const bool hit = ref.touch(addr);
      const auto evicted = hit ? std::nullopt : ref.install_line(addr, false);
      const auto r = cache.access(addr);
      ASSERT_EQ(r.hit, hit);
      ASSERT_EQ(r.evicted.has_value(), evicted.has_value());
      if (evicted) {
        EXPECT_EQ(*r.evicted, evicted->line);
      }
      break;
    }
    default:
      ASSERT_EQ(cache.probe(addr), ref.probe(addr));
      ASSERT_EQ(cache.is_dirty(addr), ref.is_dirty(addr));
      break;
  }
}

TEST(CacheProperty, PackedWaysMatchWideReference) {
  P8_PROP(gen, 60, 0x8b17e5) {
    const unsigned ways = gen.pick({16u, 8u});
    const std::uint64_t sets = gen.pick<std::uint64_t>({1, 4, 6, 64});
    const std::uint64_t line = 128;
    SetAssocCache cache(sets * ways * line, ways, line);
    WideLru ref(sets, ways, line);
    // Three times the capacity in distinct-enough lines, spread over
    // the whole 30-bit tag range so every packed tag bit is exercised.
    std::vector<std::uint64_t> pool(sets * ways * 3);
    const std::uint64_t reach_lines =
        (std::uint64_t{1} << SetAssocCache::kTagBits) * sets;
    for (auto& a : pool)
      a = gen.range(0, reach_lines - 1) * line + gen.range(0, line - 1);
    for (int op = 0; op < 4000 && !::testing::Test::HasFailure(); ++op)
      random_op(gen, pool, cache, ref);
    EXPECT_EQ(cache.resident_lines(), ref.resident_lines());
  }
}

TEST(CacheProperty, LruOrderSurvivesTheStampClockWrap) {
  // 2 sets x 4 ways under heavy churn.  Partway through, the clock
  // jumps to just short of its 32-bit wrap — a forward jump keeps every
  // stamp below the clock, as 2^32 real ticks would — and the run goes
  // on across the wrap twice, checked op by op against the reference.
  const std::uint64_t sets = 2, line = 64;
  const unsigned ways = 4;
  SetAssocCache cache(sets * ways * line, ways, line);
  WideLru ref(sets, ways, line);
  proptest::Gen gen(0x3a91c7);
  std::vector<std::uint64_t> pool(sets * ways * 3);
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = i * line;
  for (int wrap = 0; wrap < 2 && !HasFailure(); ++wrap) {
    for (int op = 0; op < 3000 && !HasFailure(); ++op)
      random_op(gen, pool, cache, ref);
    // Both sets full, in a scrambled recency order, at the wrap.
    for (const std::uint64_t a : pool) {
      expect_same_eviction(cache.install_line(a, false),
                           ref.install_line(a, false));
    }
    CacheClockAccess::set(cache, ~std::uint32_t{0} - 100);
    for (int op = 0; op < 3000 && !HasFailure(); ++op)
      random_op(gen, pool, cache, ref);
    EXPECT_LT(CacheClockAccess::get(cache), 10000u) << "the clock never wrapped";
  }
  EXPECT_EQ(cache.resident_lines(), ref.resident_lines());
}

TEST(Cache, TagPastThirtyBitsThrows) {
  // POWER8's L1: 64 sets of 128-byte lines reach 2^30 * 64 * 128 = 2^43.
  SetAssocCache l1(kib(64), 8, 128);
  const std::uint64_t reach = std::uint64_t{1} << 43;
  EXPECT_FALSE(l1.access(reach - 128).hit);
  EXPECT_TRUE(l1.probe(reach - 1));
  EXPECT_THROW(l1.access(reach), std::invalid_argument);
  EXPECT_THROW(l1.probe(reach), std::invalid_argument);
  EXPECT_THROW(l1.touch(reach), std::invalid_argument);
  EXPECT_THROW(l1.touch_install(reach), std::invalid_argument);
  EXPECT_THROW(l1.install_line(reach, true), std::invalid_argument);
  EXPECT_THROW(l1.take(reach), std::invalid_argument);
  EXPECT_THROW(l1.invalidate(reach), std::invalid_argument);
  SetAssocCache::Slot slot;
  EXPECT_THROW(l1.touch_slot(reach, slot), std::invalid_argument);
  EXPECT_FALSE(slot.recorded);
  EXPECT_EQ(l1.resident_lines(), 1u);  // the rejected calls changed nothing
  // The bound follows the geometry, irregular set counts included:
  // 3 sets of 64-byte lines reach 2^30 * 3 * 64.
  SetAssocCache odd(3 * 2 * 64, 2, 64);
  const std::uint64_t odd_reach = (std::uint64_t{1} << 30) * 3 * 64;
  EXPECT_FALSE(odd.access(odd_reach - 1).hit);
  EXPECT_TRUE(odd.probe(odd_reach - 64));
  EXPECT_THROW(odd.access(odd_reach), std::invalid_argument);
}

TEST(HierarchyFuzz, LookupAlwaysConsistentWithAccess) {
  // For a random access stream, lookup() must predict exactly the level
  // the next access() is serviced from.
  common::Xoshiro256 rng(7);
  ChipMemoryModel m(e870_hierarchy());
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t addr = rng.bounded(1u << 18) * 128;
    const ServiceLevel predicted = m.lookup(addr);
    const ServiceLevel actual = m.access(addr);
    ASSERT_EQ(predicted, actual) << "op " << op;
  }
}

TEST(HierarchyFuzz, CountersAreConsistent) {
  common::Xoshiro256 rng(13);
  CounterRegistry r;
  ChipMemoryModel m = counted_hierarchy(r);
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  for (int op = 0; op < 30000; ++op) {
    const std::uint64_t addr = rng.bounded(1u << 20) * 128;
    if (rng.bounded(3) == 0) {
      m.access_write(addr);
      ++stores;
    } else {
      m.access(addr);
      ++loads;
    }
  }
  EXPECT_EQ(r.value("cache.loads"), loads);
  EXPECT_EQ(r.value("cache.stores"), stores);
  // DRAM reads are a subset of link reads; write-backs cannot exceed
  // the lines ever dirtied.
  EXPECT_LE(r.value("cache.dram.read.lines"),
            r.value("cache.memlink.read.lines"));
  EXPECT_LE(r.value("cache.memlink.write.lines"), stores);
  EXPECT_LE(r.value("cache.dram.write.lines"),
            r.value("cache.memlink.write.lines"));
}

TEST(Hierarchy, ToStringNames) {
  EXPECT_STREQ(to_string(ServiceLevel::kL1), "L1");
  EXPECT_STREQ(to_string(ServiceLevel::kDram), "DRAM");
  EXPECT_STREQ(to_string(ServiceLevel::kL3Remote), "L3(remote)");
}

}  // namespace
}  // namespace p8::sim
