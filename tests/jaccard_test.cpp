// Tests for the all-pairs Jaccard similarity kernel.
#include <gtest/gtest.h>

#include <map>

#include "graph/rmat.hpp"
#include "jaccard/jaccard.hpp"

namespace p8::jaccard {
namespace {

graph::Graph path_graph(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return graph::graph_from_edges(n, edges);
}

graph::Graph clique(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t u = 0; u < n; ++u)
    for (std::uint32_t v = u + 1; v < n; ++v) edges.push_back({u, v});
  return graph::graph_from_edges(n, edges);
}

graph::Graph star(std::uint32_t leaves) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t v = 1; v <= leaves; ++v) edges.push_back({0, v});
  return graph::graph_from_edges(leaves + 1, edges);
}

std::map<std::pair<std::uint32_t, std::uint32_t>, double> as_map(
    const Result& r) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> out;
  const auto& m = r.similarities;
  for (std::uint32_t i = 0; i < m.rows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k)
      out[{i, cols[k]}] = vals[k];
  }
  return out;
}

TEST(PairSimilarity, PathEndpointsShareMiddle) {
  // 0-1-2: N(0)={1}, N(2)={1} -> J = 1/1.
  const auto g = path_graph(3);
  EXPECT_DOUBLE_EQ(pair_similarity(g, 0, 2), 1.0);
}

TEST(PairSimilarity, AdjacentPathVerticesShareNothing) {
  // N(0)={1}, N(1)={0,2}: intersection empty.
  const auto g = path_graph(3);
  EXPECT_DOUBLE_EQ(pair_similarity(g, 0, 1), 0.0);
}

TEST(PairSimilarity, CliqueValue) {
  // In K4: N(i) and N(j) share the other 2 vertices; union has 4
  // elements (i and j are in each other's neighborhoods).
  const auto g = clique(4);
  EXPECT_DOUBLE_EQ(pair_similarity(g, 0, 1), 2.0 / 4.0);
}

TEST(PairSimilarity, StarLeaves) {
  // Leaves share the hub exactly: J = 1.
  const auto g = star(5);
  EXPECT_DOUBLE_EQ(pair_similarity(g, 1, 2), 1.0);
  // Hub vs leaf: N(hub) = leaves, N(leaf) = {hub}: disjoint.
  EXPECT_DOUBLE_EQ(pair_similarity(g, 0, 1), 0.0);
}

TEST(AllPairs, MatchesBruteForceOnRmat) {
  graph::RmatOptions o;
  o.scale = 8;
  o.edge_factor = 6;
  const auto g = graph::rmat_graph(o);
  common::ThreadPool pool(4);
  const auto result = all_pairs(g, pool);
  const auto got = as_map(result);

  // Brute force over all pairs.
  std::size_t expected_pairs = 0;
  for (std::uint32_t i = 0; i < g.vertices(); ++i)
    for (std::uint32_t j = i + 1; j < g.vertices(); ++j) {
      const double want = pair_similarity(g, i, j);
      const auto it = got.find({i, j});
      if (want > 0.0) {
        ++expected_pairs;
        ASSERT_NE(it, got.end()) << i << "," << j;
        EXPECT_NEAR(it->second, want, 1e-12);
      } else {
        EXPECT_EQ(it, got.end()) << i << "," << j;
      }
    }
  EXPECT_EQ(got.size(), expected_pairs);
}

TEST(AllPairs, UpperTriangleOnly) {
  const auto g = clique(6);
  common::ThreadPool pool(2);
  const auto result = all_pairs(g, pool);
  const auto& m = result.similarities;
  for (std::uint32_t i = 0; i < m.rows(); ++i)
    for (const std::uint32_t j : m.row_cols(i)) EXPECT_GT(j, i);
}

TEST(AllPairs, CliquePairCount) {
  const auto g = clique(8);
  common::ThreadPool pool(2);
  const auto result = all_pairs(g, pool);
  EXPECT_EQ(result.similarities.nnz(), 8u * 7 / 2);
}

TEST(AllPairs, MinSimilarityFilters) {
  graph::RmatOptions o;
  o.scale = 8;
  o.edge_factor = 6;
  const auto g = graph::rmat_graph(o);
  common::ThreadPool pool(2);
  Options strict;
  strict.min_similarity = 0.5;
  const auto all = all_pairs(g, pool);
  const auto filtered = all_pairs(g, pool, strict);
  EXPECT_LT(filtered.similarities.nnz(), all.similarities.nnz());
  for (std::uint32_t i = 0; i < filtered.similarities.rows(); ++i)
    for (const double v : filtered.similarities.row_values(i))
      EXPECT_GE(v, 0.5);
}

TEST(AllPairs, OutputBytesReported) {
  const auto g = clique(16);
  common::ThreadPool pool(2);
  const auto result = all_pairs(g, pool);
  EXPECT_EQ(result.output_bytes, result.similarities.memory_bytes());
  EXPECT_GT(result.pairs_evaluated, 0u);
}

TEST(AllPairs, OutputLargerThanInputOnScaleFree) {
  // The Figure 10 phenomenon: the similarity matrix dwarfs the graph.
  graph::RmatOptions o;
  o.scale = 10;
  o.edge_factor = 8;
  const auto g = graph::rmat_graph(o);
  common::ThreadPool pool(4);
  const auto result = all_pairs(g, pool);
  EXPECT_GT(result.output_bytes, 2 * g.adjacency.memory_bytes());
}

TEST(AllPairs, SimilaritiesAreProbabilities) {
  graph::RmatOptions o;
  o.scale = 9;
  const auto g = graph::rmat_graph(o);
  common::ThreadPool pool(2);
  const auto result = all_pairs(g, pool);
  for (std::uint32_t i = 0; i < result.similarities.rows(); ++i)
    for (const double v : result.similarities.row_values(i)) {
      EXPECT_GT(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
}

TEST(AllPairs, EmptyGraph) {
  const graph::Graph g = graph::graph_from_edges(10, {});
  common::ThreadPool pool(2);
  const auto result = all_pairs(g, pool);
  EXPECT_EQ(result.similarities.nnz(), 0u);
}

TEST(AllPairs, StaticScheduleSameResultWorseBalance) {
  graph::RmatOptions o;
  o.scale = 10;
  o.edge_factor = 8;
  const auto g = graph::rmat_graph(o);
  common::ThreadPool pool(8);
  Options dynamic;
  // Chunks must be small relative to rows/worker for dynamic
  // scheduling to balance (1024 rows over 8 workers here).
  dynamic.row_chunk = 8;
  Options fixed;
  fixed.dynamic_schedule = false;
  const auto a = all_pairs(g, pool, dynamic);
  const auto b = all_pairs(g, pool, fixed);
  // Identical mathematics...
  EXPECT_EQ(as_map(a), as_map(b));
  // ...but the static split's largest task dwarfs the dynamic chunks
  // on a power-law input (SpGEMM row work is quadratic in degree).
  EXPECT_GT(b.max_task_share, 2.0 * a.max_task_share);
  EXPECT_LT(a.max_task_share, 1.0);
  EXPECT_GT(b.max_task_share, 1.0);
}

class JaccardChunks : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(JaccardChunks, ChunkSizeDoesNotChangeResult) {
  graph::RmatOptions o;
  o.scale = 8;
  const auto g = graph::rmat_graph(o);
  common::ThreadPool pool(3);
  Options base;
  const auto reference = as_map(all_pairs(g, pool, base));
  Options chunked;
  chunked.row_chunk = GetParam();
  const auto got = as_map(all_pairs(g, pool, chunked));
  EXPECT_EQ(got, reference);
}

INSTANTIATE_TEST_SUITE_P(Chunks, JaccardChunks,
                         ::testing::Values(1, 3, 17, 64, 1024));

}  // namespace
}  // namespace p8::jaccard
