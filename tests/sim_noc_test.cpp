// Tests for the SMP interconnect model: the Table IV latencies,
// point-to-point bandwidths, and the aggregate orderings the paper
// highlights.
#include <gtest/gtest.h>

#include "arch/spec.hpp"
#include "arch/topology.hpp"
#include "sim/noc/noc.hpp"

namespace p8::sim {
namespace {

NocModel e870_noc() {
  return NocModel(arch::Topology::from_spec(arch::e870()));
}

// ------------------------------------------------- Table IV latencies ------

struct LatRow {
  int chip;
  double paper_ns;
};

// Print the row by chip: gtest's default byte dump would take in the
// struct's padding, so the test names would change from one build to
// the next.
void PrintTo(const LatRow& row, std::ostream* os) { *os << "chip" << row.chip; }

class TableIVLatency : public ::testing::TestWithParam<LatRow> {};

TEST_P(TableIVLatency, WithinTenPercent) {
  const auto noc = e870_noc();
  const auto& row = GetParam();
  EXPECT_NEAR(noc.memory_latency_ns(0, row.chip), row.paper_ns,
              row.paper_ns * 0.10);
}

INSTANTIATE_TEST_SUITE_P(Chips, TableIVLatency,
                         ::testing::Values(LatRow{1, 123}, LatRow{2, 125},
                                           LatRow{3, 133}, LatRow{4, 213},
                                           LatRow{5, 235}, LatRow{6, 237},
                                           LatRow{7, 243}));

TEST(Noc, PrefetchCutsLatencyByAnOrderOfMagnitude) {
  const auto noc = e870_noc();
  for (int chip = 1; chip < 8; ++chip) {
    const double demand = noc.memory_latency_ns(0, chip);
    const double prefetched = noc.memory_latency_prefetched_ns(0, chip);
    EXPECT_LT(prefetched, demand / 7.0) << "chip " << chip;
    EXPECT_GT(prefetched, 5.0);  // not free either
  }
}

// ---------------------------------------------- Table IV bandwidths --------

TEST(Noc, IntraGroupOneDirection30) {
  const auto noc = e870_noc();
  for (int b : {1, 2, 3})
    EXPECT_NEAR(noc.one_direction_gbs(0, b), 30.0, 3.0);
}

TEST(Noc, IntraGroupBidirection53) {
  const auto noc = e870_noc();
  for (int b : {1, 2, 3})
    EXPECT_NEAR(noc.bidirection_gbs(0, b), 53.0, 5.0);
}

TEST(Noc, InterGroupOneDirection45) {
  const auto noc = e870_noc();
  for (int b : {4, 5, 6, 7})
    EXPECT_NEAR(noc.one_direction_gbs(0, b), 45.0, 4.5) << "chip " << b;
}

TEST(Noc, InterGroupBidirection82to87) {
  const auto noc = e870_noc();
  for (int b : {4, 5, 6, 7}) {
    const double bw = noc.bidirection_gbs(0, b);
    EXPECT_GT(bw, 75.0) << "chip " << b;
    EXPECT_LT(bw, 92.0) << "chip " << b;
  }
}

TEST(Noc, InterGroupBeatsIntraGroupPointBandwidth) {
  // The paper's counter-intuitive result: multipath inter-group beats
  // the single-route intra-group despite slower links.
  const auto noc = e870_noc();
  EXPECT_GT(noc.one_direction_gbs(0, 4), noc.one_direction_gbs(0, 1));
  EXPECT_GT(noc.bidirection_gbs(0, 5), noc.bidirection_gbs(0, 2));
}

TEST(Noc, InterleavedIsIngestBound) {
  const auto noc = e870_noc();
  EXPECT_NEAR(noc.interleaved_to_chip_gbs(0), 69.0, 7.0);
}

TEST(Noc, XAggregateNear632) {
  EXPECT_NEAR(e870_noc().xbus_aggregate_gbs(), 632.0, 40.0);
}

TEST(Noc, AAggregateNear206) {
  EXPECT_NEAR(e870_noc().abus_aggregate_gbs(), 206.0, 15.0);
}

TEST(Noc, XAggregateIsAboutThreeTimesA) {
  const auto noc = e870_noc();
  const double ratio = noc.xbus_aggregate_gbs() / noc.abus_aggregate_gbs();
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 3.5);
}

TEST(Noc, AllToAllSitsBetweenAggregates) {
  const auto noc = e870_noc();
  const double all = noc.all_to_all_gbs();
  EXPECT_GT(all, noc.abus_aggregate_gbs());
  EXPECT_LT(all, noc.xbus_aggregate_gbs());
}

TEST(Noc, SymmetricByConstruction) {
  const auto noc = e870_noc();
  for (int b = 1; b < 8; ++b) {
    EXPECT_NEAR(noc.one_direction_gbs(0, b), noc.one_direction_gbs(b, 0),
                1e-9);
    EXPECT_NEAR(noc.bidirection_gbs(0, b), noc.bidirection_gbs(b, 0), 1e-9);
  }
}

TEST(Noc, UniformFlowValidation) {
  const auto noc = e870_noc();
  EXPECT_THROW(noc.max_uniform_flow_gbs({}), std::invalid_argument);
  EXPECT_THROW(noc.max_uniform_flow_gbs({{0, 0}}), std::invalid_argument);
}

TEST(Noc, SingleRouteRestrictionLowersPartnerBandwidth) {
  // direct_only removes the multipath advantage.
  const auto noc = e870_noc();
  const double multi = noc.max_uniform_flow_gbs({{4, 0}});
  const double direct = noc.max_uniform_flow_gbs({{4, 0}}, true);
  EXPECT_GT(multi, direct);
}

TEST(Noc, RoutingAblationSingleRouteEverywhere) {
  // With max_routes = 1 the inter-group advantage disappears.
  NocParams params;
  params.max_routes_inter_group = 1;
  NocModel noc(arch::Topology::from_spec(arch::e870()), params);
  EXPECT_LE(noc.one_direction_gbs(0, 4), noc.one_direction_gbs(0, 1));
}

TEST(Noc, LatencyIncludesLocalDram) {
  const auto noc = e870_noc();
  EXPECT_NEAR(noc.memory_latency_ns(0, 0), noc.params().local_dram_latency_ns,
              1e-9);
}

}  // namespace
}  // namespace p8::sim
