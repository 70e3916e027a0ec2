// Tests for the analytic memory-bandwidth model: Table III, Fig. 3 and
// Fig. 4 behaviours must emerge from the mechanisms.
#include <gtest/gtest.h>

#include "arch/spec.hpp"
#include "sim/mem/bandwidth.hpp"

namespace p8::sim {
namespace {

MemoryBandwidthModel e870_model() {
  return MemoryBandwidthModel(arch::e870());
}

// ------------------------------------------------------------ Table III ----

struct MixRow {
  const char* name;
  RwMix mix;
  double paper_gbs;
};

// Print the row by name: gtest's default byte dump would embed the
// `name` pointer, and an address-dependent test name changes from one
// build (and one run) to the next.
void PrintTo(const MixRow& row, std::ostream* os) { *os << row.name; }

class TableIII : public ::testing::TestWithParam<MixRow> {};

TEST_P(TableIII, WithinTenPercentOfPaper) {
  const auto& row = GetParam();
  const double got = e870_model().system_stream_gbs(row.mix);
  EXPECT_NEAR(got, row.paper_gbs, row.paper_gbs * 0.10)
      << row.name << ": model " << got << " paper " << row.paper_gbs;
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, TableIII,
    ::testing::Values(MixRow{"read-only", {1, 0}, 1141.0},
                      MixRow{"16:1", {16, 1}, 1208.0},
                      MixRow{"8:1", {8, 1}, 1267.0},
                      MixRow{"4:1", {4, 1}, 1375.0},
                      MixRow{"2:1", {2, 1}, 1472.0},
                      MixRow{"1:1", {1, 1}, 894.0},
                      MixRow{"1:2", {1, 2}, 748.0},
                      MixRow{"1:4", {1, 4}, 658.0},
                      MixRow{"write-only", {0, 1}, 589.0}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (auto& ch : n)
        if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return n;
    });

TEST(MemModel, TwoToOneIsTheOptimum) {
  const auto m = e870_model();
  const double best = m.system_stream_gbs({2, 1});
  for (const RwMix mix : {RwMix{1, 0}, RwMix{16, 1}, RwMix{8, 1},
                          RwMix{4, 1}, RwMix{1, 1}, RwMix{1, 2},
                          RwMix{1, 4}, RwMix{0, 1}})
    EXPECT_GE(best, m.system_stream_gbs(mix));
}

TEST(MemModel, PeakIsAbout80PercentOfSpec) {
  const auto spec = arch::e870();
  const double got = e870_model().system_stream_gbs({2, 1});
  const double fraction = got / spec.peak_mem_gbs();
  EXPECT_GT(fraction, 0.75);
  EXPECT_LT(fraction, 0.85);
}

TEST(MemModel, WriteOnlyIsLessThanHalfOfOptimal) {
  const auto m = e870_model();
  EXPECT_LT(m.system_stream_gbs({0, 1}),
            0.5 * m.system_stream_gbs({2, 1}));
}

// ---------------------------------------------------------------- Fig 3 ----

TEST(MemModel, SingleCorePeaksNear26GBs) {
  const auto m = e870_model();
  const double bw = m.stream_gbs(1, 1, 8, {2, 1});
  EXPECT_NEAR(bw, 26.0, 3.0);
}

TEST(MemModel, SingleCoreScalesWithThreads) {
  const auto m = e870_model();
  double prev = 0.0;
  for (int t = 1; t <= 8; ++t) {
    const double bw = m.stream_gbs(1, 1, t, {2, 1});
    EXPECT_GE(bw, prev);
    prev = bw;
  }
  // One thread alone cannot saturate the core.
  EXPECT_LT(m.stream_gbs(1, 1, 1, {2, 1}),
            0.5 * m.stream_gbs(1, 1, 8, {2, 1}));
}

TEST(MemModel, ChipPeaksNear189GBs) {
  const auto m = e870_model();
  EXPECT_NEAR(m.stream_gbs(1, 8, 8, {2, 1}), 189.0, 12.0);
}

TEST(MemModel, ChipNeedsAllCoresAndThreads) {
  const auto m = e870_model();
  const double full = m.stream_gbs(1, 8, 8, {2, 1});
  EXPECT_LT(m.stream_gbs(1, 4, 8, {2, 1}), full);
  EXPECT_LT(m.stream_gbs(1, 8, 1, {2, 1}), full);
}

TEST(MemModel, ChipScalesWithCores) {
  const auto m = e870_model();
  double prev = 0.0;
  for (int c = 1; c <= 8; ++c) {
    const double bw = m.stream_gbs(1, c, 8, {2, 1});
    EXPECT_GE(bw, prev);
    prev = bw;
  }
}

TEST(MemModel, ShallowPrefetchLowersConcurrencyCap) {
  const auto m = e870_model();
  EXPECT_LT(m.stream_gbs(1, 1, 1, {2, 1}, /*dscr=*/1),
            m.stream_gbs(1, 1, 1, {2, 1}, /*dscr=*/7));
}

TEST(MemModel, CapsExposedAreConsistent) {
  const auto m = e870_model();
  const RwMix mix{2, 1};
  const double bw = m.system_stream_gbs(mix);
  EXPECT_LE(bw, m.read_link_cap_gbs(8, mix) + 1e-9);
  EXPECT_LE(bw, m.write_link_cap_gbs(8, mix) + 1e-9);
  EXPECT_LE(bw, m.fabric_cap_gbs(8) + 1e-9);
}

TEST(MemModel, ArgumentValidation) {
  const auto m = e870_model();
  EXPECT_THROW(m.stream_gbs(0, 1, 1, {2, 1}), std::invalid_argument);
  EXPECT_THROW(m.stream_gbs(1, 9, 1, {2, 1}), std::invalid_argument);
  EXPECT_THROW(m.stream_gbs(1, 1, 9, {2, 1}), std::invalid_argument);
  EXPECT_THROW(m.stream_gbs(1, 1, 1, {0, 0}), std::invalid_argument);
}

// ---------------------------------------------------------------- Fig 4 ----

TEST(MemModel, RandomPeaksNear41PercentOfReadPeak) {
  const auto m = e870_model();
  const double peak = m.random_gbs(8, 8, 8, 16);
  const double fraction = peak / arch::e870().peak_read_gbs();
  EXPECT_GT(fraction, 0.35);
  EXPECT_LT(fraction, 0.45);
}

TEST(MemModel, RandomScalesWithThreadsAtLowConcurrency) {
  const auto m = e870_model();
  const double one = m.random_gbs(8, 8, 1, 1);
  const double two = m.random_gbs(8, 8, 2, 1);
  EXPECT_GT(two, 1.6 * one);  // near-linear regime
}

TEST(MemModel, Smt8ReachesPeakWithFourStreams) {
  const auto m = e870_model();
  const double at4 = m.random_gbs(8, 8, 8, 4);
  const double at16 = m.random_gbs(8, 8, 8, 16);
  EXPECT_GT(at4, 0.97 * at16);
}

TEST(MemModel, Smt4NeedsMoreStreamsThanSmt8) {
  const auto m = e870_model();
  // At 2 streams, SMT8 is already close to peak while SMT4 is not.
  const double peak = m.random_gbs(8, 8, 8, 16);
  EXPECT_GT(m.random_gbs(8, 8, 8, 2), 0.9 * peak);
  EXPECT_LT(m.random_gbs(8, 8, 4, 2), 0.85 * peak);
  // SMT4 catches up once each thread chases enough lists.
  EXPECT_GT(m.random_gbs(8, 8, 4, 16), 0.97 * peak);
}

TEST(MemModel, RandomMonotoneInEverything) {
  const auto m = e870_model();
  double prev = 0.0;
  for (int s = 1; s <= 16; s *= 2) {
    const double bw = m.random_gbs(8, 8, 4, s);
    EXPECT_GE(bw, prev);
    prev = bw;
  }
  EXPECT_GE(m.random_gbs(8, 8, 8, 4), m.random_gbs(4, 8, 8, 4));
  EXPECT_GE(m.random_gbs(8, 8, 8, 4), m.random_gbs(8, 4, 8, 4));
}

TEST(MemModel, RandomValidation) {
  const auto m = e870_model();
  EXPECT_THROW(m.random_gbs(0, 1, 1, 1), std::invalid_argument);
  EXPECT_THROW(m.random_gbs(1, 1, 1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace p8::sim
