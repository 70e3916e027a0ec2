// Tests for the SpMV library: the CSR kernel, the NUMA-style plan and
// the two-phase tiled graph SpMV.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "graph/matrices.hpp"
#include "graph/rmat.hpp"
#include "spmv/csr_spmv.hpp"
#include "spmv/graph_spmv.hpp"

namespace p8::spmv {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> x(n);
  common::Xoshiro256 rng(seed);
  for (auto& v : x) v = rng.uniform() * 2.0 - 1.0;
  return x;
}

double max_rel_diff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1.0});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

TEST(CsrSpmv, KnownSmallSystem) {
  // [1 2; 0 3] * [1, 2] = [5, 6]
  const graph::CsrMatrix a = graph::CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}});
  std::vector<double> x{1.0, 2.0};
  std::vector<double> y(2);
  spmv_serial(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(CsrSpmv, EmptyRowsGiveZero) {
  const graph::CsrMatrix a =
      graph::CsrMatrix::from_triplets(3, 3, {{0, 0, 1.0}});
  std::vector<double> x{1.0, 1.0, 1.0};
  std::vector<double> y(3, 99.0);
  spmv_serial(a, x, y);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
}

TEST(CsrSpmv, ParallelMatchesSerial) {
  const graph::CsrMatrix a = graph::random_uniform(3000, 7, 5);
  const auto x = random_vector(a.cols(), 1);
  std::vector<double> ys(a.rows());
  std::vector<double> yp(a.rows());
  spmv_serial(a, x, ys);
  common::ThreadPool pool(4);
  spmv(a, x, yp, pool, CsrSpmvPlan(a, pool.size()));
  EXPECT_LT(max_rel_diff(ys, yp), 1e-12);
}

TEST(CsrSpmv, RectangularMatrix) {
  const graph::CsrMatrix a = graph::lp_rectangular(256, 2048, 6, 3);
  const auto x = random_vector(a.cols(), 2);
  std::vector<double> ys(a.rows());
  std::vector<double> yp(a.rows());
  spmv_serial(a, x, ys);
  common::ThreadPool pool(3);
  spmv(a, x, yp, pool, CsrSpmvPlan(a, pool.size()));
  EXPECT_LT(max_rel_diff(ys, yp), 1e-12);
}

TEST(CsrSpmv, ShortVectorsRejected) {
  const graph::CsrMatrix a = graph::random_uniform(10, 2, 1);
  std::vector<double> x(5);
  std::vector<double> y(10);
  EXPECT_THROW(spmv_serial(a, x, y), std::invalid_argument);
}

TEST(CsrSpmv, PlanBalancesSkewedMatrix) {
  // Power-law rows: naive row-count split would be terrible; the
  // nnz-balanced plan keeps the heaviest partition under 2x ideal.
  const graph::CsrMatrix a = graph::power_law(20000, 6.0, 2.1, 11);
  const CsrSpmvPlan plan(a, 8);
  EXPECT_LT(plan.imbalance(a), 2.0);
}

TEST(CsrSpmv, PlanCoversAllRows) {
  const graph::CsrMatrix a = graph::random_uniform(1000, 3, 2);
  const CsrSpmvPlan plan(a, 7);
  std::size_t prev = 0;
  for (std::size_t t = 0; t < plan.threads(); ++t) {
    const auto [lo, hi] = plan.row_range(t);
    EXPECT_EQ(lo, prev);
    prev = hi;
  }
  EXPECT_EQ(prev, 1000u);
}

TEST(CsrSpmv, PlanPoolMismatchRejected) {
  const graph::CsrMatrix a = graph::random_uniform(100, 3, 2);
  const CsrSpmvPlan plan(a, 2);
  common::ThreadPool pool(3);
  const auto x = random_vector(100, 1);
  std::vector<double> y(100);
  EXPECT_THROW(spmv(a, x, y, pool, plan), std::invalid_argument);
}

TEST(CsrSpmv, FlopsConvention) {
  const graph::CsrMatrix a = graph::random_uniform(100, 4, 2);
  EXPECT_DOUBLE_EQ(spmv_flops(a), 2.0 * a.nnz());
}

// ---------------------------------------------------------------- tiled ----

class TiledVsSerial : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TiledVsSerial, MatchesSerialAtAnyBlockSize) {
  const std::uint32_t block = GetParam();
  const graph::CsrMatrix a = graph::rmat_adjacency([] {
    graph::RmatOptions o;
    o.scale = 11;
    o.edge_factor = 8;
    return o;
  }());
  const auto x = random_vector(a.cols(), 9);
  std::vector<double> ys(a.rows());
  spmv_serial(a, x, ys);

  TiledOptions opts;
  opts.col_block = block;
  opts.row_block = block;
  TiledSpmv tiled(a, opts);
  std::vector<double> yt(a.rows());
  common::ThreadPool pool(4);
  tiled.execute(x, yt, pool);
  EXPECT_LT(max_rel_diff(ys, yt), 1e-12) << "block " << block;
}

INSTANTIATE_TEST_SUITE_P(Blocks, TiledVsSerial,
                         ::testing::Values(64, 256, 1024, 4096, 1u << 20));

TEST(TiledSpmv, PreservesNnz) {
  const graph::CsrMatrix a = graph::random_uniform(5000, 6, 4);
  TiledSpmv tiled(a);
  EXPECT_EQ(tiled.nnz(), a.nnz());
}

TEST(TiledSpmv, TileGeometry) {
  const graph::CsrMatrix a = graph::random_uniform(10000, 4, 4);
  TiledOptions o;
  o.col_block = 2500;
  o.row_block = 5000;
  TiledSpmv tiled(a, o);
  EXPECT_EQ(tiled.col_blocks(), 4u);
  EXPECT_EQ(tiled.row_blocks(), 2u);
  EXPECT_NEAR(tiled.mean_tile_nnz(), 40000.0 / 8.0, 1.0);
}

TEST(TiledSpmv, MeanTileNnzShrinksWithScale) {
  // The paper's explanation of Fig. 12's decay: fixed average degree,
  // growing dimension => emptier tiles.
  graph::RmatOptions o;
  o.edge_factor = 8;
  o.scale = 10;
  TiledOptions t;
  t.col_block = 512;
  t.row_block = 512;
  const TiledSpmv small(graph::rmat_adjacency(o), t);
  o.scale = 13;
  const TiledSpmv large(graph::rmat_adjacency(o), t);
  EXPECT_GT(small.mean_tile_nnz(), large.mean_tile_nnz());
}

TEST(TiledSpmv, RepeatedExecutionsAreConsistent) {
  const graph::CsrMatrix a = graph::random_uniform(2000, 5, 8);
  TiledSpmv tiled(a);
  const auto x = random_vector(a.cols(), 3);
  std::vector<double> y1(a.rows());
  std::vector<double> y2(a.rows());
  common::ThreadPool pool(2);
  tiled.execute(x, y1, pool);
  tiled.execute(x, y2, pool);
  EXPECT_EQ(y1, y2);
}

TEST(TiledSpmv, RectangularInput) {
  const graph::CsrMatrix a = graph::lp_rectangular(512, 4096, 8, 6);
  const auto x = random_vector(a.cols(), 4);
  std::vector<double> ys(a.rows());
  spmv_serial(a, x, ys);
  TiledSpmv tiled(a);
  std::vector<double> yt(a.rows());
  common::ThreadPool pool(2);
  tiled.execute(x, yt, pool);
  EXPECT_LT(max_rel_diff(ys, yt), 1e-12);
}

TEST(TiledSpmv, EmptyMatrix) {
  const graph::CsrMatrix a = graph::CsrMatrix::from_triplets(100, 100, {});
  TiledSpmv tiled(a);
  std::vector<double> x(100, 1.0);
  std::vector<double> y(100, 5.0);
  common::ThreadPool pool(2);
  tiled.execute(x, y, pool);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace p8::spmv
