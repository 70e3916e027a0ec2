// Tests for the graph/sparse substrate: CSR construction, transpose,
// R-MAT generation, the synthetic matrix suite and the structure
// statistics.
#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "graph/matrices.hpp"
#include "graph/rmat.hpp"
#include "graph/stats.hpp"

namespace p8::graph {
namespace {

// -------------------------------------------------------------------- CSR --

TEST(Csr, FromTripletsSortsAndStores) {
  const CsrMatrix m = CsrMatrix::from_triplets(
      3, 4, {{2, 1, 5.0}, {0, 3, 1.0}, {0, 0, 2.0}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_TRUE(m.well_formed());
  ASSERT_EQ(m.row_cols(0).size(), 2u);
  EXPECT_EQ(m.row_cols(0)[0], 0u);
  EXPECT_EQ(m.row_cols(0)[1], 3u);
  EXPECT_DOUBLE_EQ(m.row_values(0)[0], 2.0);
  EXPECT_EQ(m.row_nnz(1), 0u);
  EXPECT_EQ(m.row_cols(2)[0], 1u);
}

TEST(Csr, DuplicatesAreSummed) {
  const CsrMatrix m =
      CsrMatrix::from_triplets(2, 2, {{0, 1, 1.5}, {0, 1, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.row_values(0)[0], 4.0);
}

TEST(Csr, EmptyMatrix) {
  const CsrMatrix m = CsrMatrix::from_triplets(5, 5, {});
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_TRUE(m.well_formed());
  for (std::uint32_t r = 0; r < 5; ++r) EXPECT_EQ(m.row_nnz(r), 0u);
}

TEST(Csr, OutOfRangeTripletRejected) {
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{0, 2, 1.0}}),
               std::invalid_argument);
}

TEST(Csr, MemoryBytesAccounting) {
  const CsrMatrix m = random_uniform(100, 4, 1);
  EXPECT_EQ(m.memory_bytes(),
            101 * sizeof(std::uint64_t) + m.nnz() * (4 + 8));
}

// ------------------------------------------------------------------ graph --

TEST(Graph, FromEdgesSymmetrizesAndCleans) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges{
      {0, 1}, {1, 0}, {2, 2}, {1, 2}};
  const Graph g = graph_from_edges(3, edges);
  EXPECT_EQ(g.vertices(), 3u);
  EXPECT_EQ(g.edges(), 2u);  // {0,1} deduped, {2,2} dropped
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
  // Symmetry.
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(2)[0], 1u);
}

TEST(Graph, MultiEdgesClampToOne) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges{
      {0, 1}, {0, 1}, {0, 1}};
  const Graph g = graph_from_edges(2, edges);
  EXPECT_EQ(g.edges(), 1u);
  EXPECT_DOUBLE_EQ(g.adjacency.row_values(0)[0], 1.0);
}

// ------------------------------------------------------------------- RMAT --

TEST(Rmat, EdgeCountMatchesSpec) {
  RmatOptions o;
  o.scale = 10;
  o.edge_factor = 16;
  EXPECT_EQ(rmat_edges(o).size(), (1u << 10) * 16u);
}

TEST(Rmat, DeterministicBySeed) {
  RmatOptions o;
  o.scale = 8;
  const auto a = rmat_edges(o);
  const auto b = rmat_edges(o);
  EXPECT_EQ(a, b);
  o.seed = 2;
  EXPECT_NE(rmat_edges(o), a);
}

TEST(Rmat, VerticesInRange) {
  RmatOptions o;
  o.scale = 9;
  for (const auto& [u, v] : rmat_edges(o)) {
    EXPECT_LT(u, 1u << 9);
    EXPECT_LT(v, 1u << 9);
  }
}

TEST(Rmat, GraphIsHeavyTailed) {
  RmatOptions o;
  o.scale = 12;
  const Graph g = rmat_graph(o);
  const DegreeStats s = degree_stats(g.adjacency);
  // Graph500 parameters produce a strongly skewed degree profile.
  EXPECT_GT(s.gini, 0.45);
  EXPECT_GT(s.top1_percent_share, 0.08);
  EXPECT_GT(s.max, 40 * static_cast<std::uint64_t>(s.mean));
}

TEST(Rmat, UniformQuadrantsAreNotHeavyTailed) {
  RmatOptions o;
  o.scale = 12;
  o.a = o.b = o.c = 0.25;
  const DegreeStats s = degree_stats(rmat_graph(o).adjacency);
  EXPECT_LT(s.gini, 0.25);
}

TEST(Rmat, PermutationPreservesStructureNotLayout) {
  RmatOptions o;
  o.scale = 10;
  o.permute_vertices = false;
  const auto fixed = rmat_graph(o);
  o.permute_vertices = true;
  const auto shuffled = rmat_graph(o);
  // Same scale-free character either way.
  EXPECT_NEAR(degree_stats(fixed.adjacency).gini,
              degree_stats(shuffled.adjacency).gini, 0.1);
  // Without permutation R-MAT hubs concentrate at low ids, giving a
  // small normalized bandwidth contribution difference; just check
  // both are valid graphs.
  EXPECT_TRUE(fixed.adjacency.well_formed());
  EXPECT_TRUE(shuffled.adjacency.well_formed());
}

TEST(Rmat, Validation) {
  RmatOptions o;
  o.scale = 0;
  EXPECT_THROW(rmat_edges(o), std::invalid_argument);
  o.scale = 8;
  o.a = 1.1;
  EXPECT_THROW(rmat_edges(o), std::invalid_argument);
}

// ------------------------------------------------------------- generators --

TEST(Matrices, DenseIsDense) {
  const CsrMatrix m = dense_matrix(50);
  EXPECT_EQ(m.nnz(), 2500u);
  EXPECT_TRUE(m.well_formed());
}

TEST(Matrices, LatticeSevenPoint) {
  const CsrMatrix m = lattice_3d(8, 8, 8, 7);
  EXPECT_EQ(m.rows(), 512u);
  // Periodic 7-point: exactly 7 nnz per row.
  for (std::uint32_t r = 0; r < m.rows(); ++r)
    EXPECT_EQ(m.row_nnz(r), 7u);
}

TEST(Matrices, LatticeTwentySevenPoint) {
  const CsrMatrix m = lattice_3d(6, 6, 6, 27);
  for (std::uint32_t r = 0; r < m.rows(); ++r)
    EXPECT_EQ(m.row_nnz(r), 27u);
}

TEST(Matrices, FemIsBanded) {
  const CsrMatrix m = fem_banded(2000, 3, 12, 40, 7);
  EXPECT_LT(normalized_bandwidth(m), 0.05);
  EXPECT_TRUE(m.well_formed());
}

TEST(Matrices, RandomUniformIsNot) {
  const CsrMatrix m = random_uniform(2000, 8, 7);
  EXPECT_GT(normalized_bandwidth(m), 0.2);
}

TEST(Matrices, PowerLawIsSkewed) {
  const CsrMatrix m = power_law(20000, 5.0, 2.1, 3);
  const DegreeStats s = degree_stats(m);
  EXPECT_GT(s.gini, 0.5);
  EXPECT_NEAR(s.mean, 5.0, 1.5);
}

TEST(Matrices, LpIsRectangularWithHeavyRows) {
  const CsrMatrix m = lp_rectangular(1024, 8192, 10, 5);
  EXPECT_EQ(m.rows(), 1024u);
  EXPECT_EQ(m.cols(), 8192u);
  const DegreeStats s = degree_stats(m);
  EXPECT_GT(s.max, 8 * static_cast<std::uint64_t>(s.mean));
}

TEST(Matrices, SuiteHasFourteenEntries) {
  const auto suite = figure11_suite(0.1);
  ASSERT_EQ(suite.size(), 14u);
  EXPECT_EQ(suite.front().name, "Dense");
  EXPECT_EQ(suite.back().name, "LP");
  for (const auto& e : suite) {
    EXPECT_TRUE(e.matrix.well_formed()) << e.name;
    EXPECT_GT(e.matrix.nnz(), 0u) << e.name;
  }
}

TEST(Matrices, SuiteScalesWithFactor) {
  const auto small = figure11_suite(0.05);
  const auto larger = figure11_suite(0.1);
  // The generators with scalable dimensions must grow.
  EXPECT_GT(larger[1].matrix.nnz(), small[1].matrix.nnz());
}

// ------------------------------------------------------------------ stats --

TEST(Stats, UniformDegreesGiniZero) {
  const CsrMatrix m = lattice_3d(6, 6, 6, 7);
  EXPECT_NEAR(degree_stats(m).gini, 0.0, 0.01);
}

TEST(Stats, KnownSkew) {
  // 3 rows: lengths 0, 0, 10 -> strongly unequal.
  std::vector<Triplet> t;
  for (std::uint32_t c = 0; c < 10; ++c) t.push_back({2, c, 1.0});
  const CsrMatrix m = CsrMatrix::from_triplets(3, 10, std::move(t));
  EXPECT_GT(degree_stats(m).gini, 0.6);
  EXPECT_EQ(degree_stats(m).max, 10u);
  EXPECT_EQ(degree_stats(m).min, 0u);
}

TEST(Stats, BandwidthOfDiagonalIsZero) {
  std::vector<Triplet> t;
  for (std::uint32_t i = 0; i < 64; ++i) t.push_back({i, i, 1.0});
  const CsrMatrix m = CsrMatrix::from_triplets(64, 64, std::move(t));
  EXPECT_DOUBLE_EQ(normalized_bandwidth(m), 0.0);
}

}  // namespace
}  // namespace p8::graph
