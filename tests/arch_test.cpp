// Tests for the spec registry (Tables I/II) and the E870 topology
// (Figure 1): the paper's own headline numbers must fall out of the
// derived quantities.
#include <gtest/gtest.h>

#include <algorithm>

#include "arch/spec.hpp"
#include "arch/topology.hpp"
#include "common/units.hpp"
#include "sim/machine/spec.hpp"

namespace p8::arch {
namespace {

using common::kib;
using common::mib;

// -------------------------------------------------------------- Table I ----

TEST(Spec, Power7TableI) {
  const ProcessorSpec p = power7();
  EXPECT_EQ(p.core.smt_threads, 4);
  EXPECT_EQ(p.max_cores, 8);
  EXPECT_EQ(p.core.l1d_bytes, kib(32));
  EXPECT_EQ(p.core.l2_bytes, kib(256));
  EXPECT_EQ(p.core.l3_bytes, mib(4));
  EXPECT_EQ(p.max_l4_bytes, 0u);
  EXPECT_EQ(p.core.issue_width, 8);
  EXPECT_EQ(p.core.commit_width, 6);
  EXPECT_EQ(p.core.loads_per_cycle, 2);
  EXPECT_EQ(p.core.stores_per_cycle, 2);
}

TEST(Spec, Power8TableI) {
  const ProcessorSpec p = power8();
  EXPECT_EQ(p.core.smt_threads, 8);
  EXPECT_EQ(p.max_cores, 12);
  EXPECT_EQ(p.core.l1i_bytes, kib(32));
  EXPECT_EQ(p.core.l1d_bytes, kib(64));
  EXPECT_EQ(p.core.l2_bytes, kib(512));
  EXPECT_EQ(p.core.l3_bytes, mib(8));
  EXPECT_EQ(p.max_l4_bytes, mib(128));
  EXPECT_EQ(p.core.issue_width, 10);
  EXPECT_EQ(p.core.commit_width, 8);
  EXPECT_EQ(p.core.loads_per_cycle, 4);
  EXPECT_EQ(p.core.stores_per_cycle, 2);
  EXPECT_EQ(p.cache_line_bytes, 128u);
}

TEST(Spec, Power8DoublesPower7PerCoreCaches) {
  const auto p7 = power7();
  const auto p8v = power8();
  EXPECT_EQ(p8v.core.l1d_bytes, 2 * p7.core.l1d_bytes);
  EXPECT_EQ(p8v.core.l2_bytes, 2 * p7.core.l2_bytes);
  EXPECT_EQ(p8v.core.l3_bytes, 2 * p7.core.l3_bytes);
  EXPECT_EQ(p8v.core.smt_threads, 2 * p7.core.smt_threads);
}

TEST(Spec, Power8VsxGeometry) {
  const auto core = power8().core;
  EXPECT_EQ(core.vsx_pipes, 2);
  EXPECT_EQ(core.vsx_latency_cycles, 6);
  EXPECT_EQ(core.arch_vsx_registers, 128);
  EXPECT_EQ(core.dp_flops_per_cycle(), 8);  // 2 pipes x 2 lanes x FMA
}

// ---------------------------------------------- §II headline quantities ----

TEST(Spec, MaxSmpHeadlineNumbers) {
  const SystemSpec s = max_power8_smp();
  EXPECT_EQ(s.total_cores(), 192);
  // "6,144 GFLOP/s of double-precision performance"
  EXPECT_NEAR(s.peak_dp_gflops(), 6144.0, 1.0);
  // "3,686 GB/s memory throughput" (2:1 mix)
  EXPECT_NEAR(s.peak_mem_gbs(), 3686.0, 2.0);
  // "memory capacity of 16 TB"
  EXPECT_EQ(s.max_dram_bytes(), 16ull << 40);
}

TEST(Spec, CentaurLinkAsymmetry) {
  const CentaurSpec c;
  EXPECT_DOUBLE_EQ(c.read_link_gbs, 19.2);
  EXPECT_DOUBLE_EQ(c.write_link_gbs, 9.6);
  EXPECT_DOUBLE_EQ(c.read_link_gbs / c.write_link_gbs, 2.0);
  EXPECT_EQ(c.l4_bytes, mib(16));
}

// -------------------------------------------------------------- Table II ---

TEST(Spec, E870Configuration) {
  const SystemSpec s = e870();
  EXPECT_EQ(s.sockets, 8);
  EXPECT_EQ(s.total_chips(), 8);
  EXPECT_EQ(s.total_cores(), 64);
  EXPECT_EQ(s.total_threads(), 512);
  EXPECT_DOUBLE_EQ(s.clock_ghz, 4.35);
}

TEST(Spec, E870Peaks) {
  const SystemSpec s = e870();
  // §IV: "double-precision and memory throughputs are 2,227 GFLOP/s
  // and 1,843 GB/s".
  EXPECT_NEAR(s.peak_dp_gflops(), 2227.0, 1.0);
  EXPECT_NEAR(s.peak_mem_gbs(), 1843.0, 1.0);
  // Read-only peak (Fig. 4 denominator) and write-only roof (§IV).
  EXPECT_NEAR(s.peak_read_gbs(), 1229.0, 1.0);
  EXPECT_NEAR(s.peak_write_gbs(), 614.0, 1.0);
  // "system balance of 1.2"
  EXPECT_NEAR(s.balance(), 1.2, 0.05);
}

TEST(Spec, E870L4Aggregate) {
  const SystemSpec s = e870();
  EXPECT_EQ(s.l4_bytes(), 8ull * mib(128));
}

// -------------------------------------------------------------- topology ---

TEST(Topology, E870HasTwoGroupsOfFour) {
  const Topology t = Topology::from_spec(e870());
  EXPECT_EQ(t.chips(), 8);
  EXPECT_EQ(t.groups(), 2);
  EXPECT_EQ(t.group_of(0), 0);
  EXPECT_EQ(t.group_of(3), 0);
  EXPECT_EQ(t.group_of(4), 1);
  EXPECT_EQ(t.group_of(7), 1);
}

TEST(Topology, LinkInventoryMatchesFigure1) {
  const Topology t = Topology::from_spec(e870());
  int xbus = 0;
  int abus = 0;
  for (const auto& link : t.links()) {
    if (link.kind == LinkKind::kXBus) ++xbus;
    else ++abus;
  }
  EXPECT_EQ(xbus, 12);  // two full 4-crossbars
  EXPECT_EQ(abus, 4);   // one bundle per partner pair
}

TEST(Topology, XbusBandwidthIs39GBs) {
  const Topology t = Topology::from_spec(e870());
  const int id = t.link_between(0, 1);
  ASSERT_GE(id, 0);
  EXPECT_DOUBLE_EQ(t.link(id).gbs_per_direction, 39.2);
}

TEST(Topology, AbusBundleIsThreeLinks) {
  const Topology t = Topology::from_spec(e870());
  const int id = t.link_between(0, 4);
  ASSERT_GE(id, 0);
  EXPECT_EQ(t.link(id).kind, LinkKind::kABus);
  EXPECT_DOUBLE_EQ(t.link(id).gbs_per_direction, 3 * 12.8);
}

TEST(Topology, PartnersPairAcrossGroups) {
  const Topology t = Topology::from_spec(e870());
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(t.partner_of(c), c + 4);
    EXPECT_EQ(t.partner_of(c + 4), c);
  }
}

TEST(Topology, NoDirectLinkBetweenNonPartners) {
  const Topology t = Topology::from_spec(e870());
  EXPECT_EQ(t.link_between(0, 5), -1);
  EXPECT_EQ(t.link_between(1, 6), -1);
  EXPECT_GE(t.link_between(0, 4), 0);
  EXPECT_GE(t.link_between(2, 3), 0);
}

TEST(Topology, IntraGroupHasSingleRoute) {
  const Topology t = Topology::from_spec(e870());
  const auto routes = t.routes(0, 2);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].size(), 1u);
}

TEST(Topology, PartnerHasDirectPlusDetours) {
  const Topology t = Topology::from_spec(e870());
  const auto routes = t.routes(0, 4);
  ASSERT_EQ(routes.size(), 4u);  // direct + 3 X-A-X detours
  EXPECT_EQ(routes[0].size(), 1u);
  for (std::size_t r = 1; r < routes.size(); ++r)
    EXPECT_EQ(routes[r].size(), 3u);
}

TEST(Topology, NonPartnerInterGroupHasTwoShortRoutes) {
  const Topology t = Topology::from_spec(e870());
  const auto routes = t.routes(0, 5);
  ASSERT_GE(routes.size(), 2u);
  EXPECT_EQ(routes[0].size(), 2u);
  EXPECT_EQ(routes[1].size(), 2u);
}

class TopologyRoutes
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TopologyRoutes, RoutesAreWellFormed) {
  const Topology t = Topology::from_spec(e870());
  const auto [src, dst] = GetParam();
  for (const auto& route : t.routes(src, dst)) {
    ASSERT_FALSE(route.empty());
    EXPECT_EQ(route.front().from, src);
    EXPECT_EQ(route.back().to, dst);
    for (std::size_t h = 0; h + 1 < route.size(); ++h)
      EXPECT_EQ(route[h].to, route[h + 1].from);
    for (const auto& hop : route) {
      const auto& link = t.link(hop.link);
      const bool matches =
          (hop.from == link.chip_a && hop.to == link.chip_b) ||
          (hop.from == link.chip_b && hop.to == link.chip_a);
      EXPECT_TRUE(matches);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, TopologyRoutes,
    ::testing::Values(std::pair{0, 1}, std::pair{0, 2}, std::pair{0, 3},
                      std::pair{0, 4}, std::pair{0, 5}, std::pair{0, 7},
                      std::pair{3, 7}, std::pair{5, 2}, std::pair{6, 1},
                      std::pair{7, 0}));

TEST(Topology, LatencyOrderingMatchesTableIV) {
  const Topology t = Topology::from_spec(e870());
  // Intra-group roughly half of inter-group.
  const double intra = t.min_latency_ns(0, 1);
  const double partner = t.min_latency_ns(0, 4);
  const double far = t.min_latency_ns(0, 5);
  EXPECT_LT(intra, partner);
  EXPECT_LT(partner, far);
  EXPECT_GT(partner, 2.5 * intra);
  // Layout effect: 0<->3 slower than 0<->1.
  EXPECT_GT(t.min_latency_ns(0, 3), t.min_latency_ns(0, 1));
}

TEST(Topology, LatencyIsSymmetric) {
  const Topology t = Topology::from_spec(e870());
  for (int a = 0; a < 8; ++a)
    for (int b = 0; b < 8; ++b)
      EXPECT_DOUBLE_EQ(t.min_latency_ns(a, b), t.min_latency_ns(b, a));
}

// The min-hop table from_spec fills holds the shortest protocol route
// of every chip pair and refuses chips outside the system.
TEST(Topology, MinLatencyTableIsTheShortestRouteOnEveryPreset) {
  for (const auto& name : sim::machine_names()) {
    const Topology t = Topology::from_spec(sim::machine_spec(name).system);
    const int n = t.chips();
    for (int src = 0; src < n; ++src)
      for (int dst = 0; dst < n; ++dst) {
        double best = src == dst ? 0.0 : 1e300;
        for (const Route& r : t.routes(src, dst))
          best = std::min(best, t.route_latency_ns(r));
        EXPECT_EQ(t.min_latency_ns(src, dst), best)
            << name << ": chip" << src << " -> chip" << dst;
      }
    EXPECT_THROW(t.min_latency_ns(-1, 0), std::invalid_argument) << name;
    EXPECT_THROW(t.min_latency_ns(0, n), std::invalid_argument) << name;
    EXPECT_THROW(t.min_latency_ns(n, n), std::invalid_argument) << name;
  }
}

TEST(Topology, SingleGroupSystemHasNoPartner) {
  SystemSpec s = e870();
  s.sockets = 4;
  const Topology t = Topology::from_spec(s);
  EXPECT_EQ(t.groups(), 1);
  EXPECT_EQ(t.partner_of(0), -1);
}

TEST(Topology, RejectsMoreThanTwoGroups) {
  SystemSpec s = e870();
  s.sockets = 12;
  EXPECT_THROW(Topology::from_spec(s), std::invalid_argument);
}

}  // namespace
}  // namespace p8::arch
