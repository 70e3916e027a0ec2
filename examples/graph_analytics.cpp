// graph_analytics: the paper's §V-A/§V-B workflow on one graph.
//
// Generates an R-MAT graph, characterizes its structure, runs both
// SpMV algorithms (plain CSR and the two-phase tiled variant) as a
// PageRank-style power iteration, and finishes with an all-pairs
// Jaccard pass filtered to strong similarities.
#include <climits>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "graph/rmat.hpp"
#include "graph/stats.hpp"
#include "jaccard/jaccard.hpp"
#include "spmv/csr_spmv.hpp"
#include "spmv/graph_spmv.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const auto scale_arg =
      bench::bounded_int_arg(args, "scale", 14, 1, 30, "R-MAT scale");
  const auto degree_arg =
      bench::bounded_int_arg(args, "degree", 16, 1, INT_MAX, "mean degree");
  const auto iterations_arg = bench::bounded_int_arg(
      args, "iterations", 10, 1, INT_MAX, "power iterations");
  const auto threads = bench::threads_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!scale_arg || !degree_arg || !iterations_arg || !threads) return 2;
  const int scale = static_cast<int>(*scale_arg);
  const int degree = static_cast<int>(*degree_arg);
  const int iterations = static_cast<int>(*iterations_arg);

  common::ThreadPool pool(bench::pool_threads(*threads));

  // --- the graph --------------------------------------------------------
  graph::RmatOptions opt;
  opt.scale = scale;
  opt.edge_factor = degree;
  const graph::Graph g = graph::rmat_graph(opt);
  const graph::DegreeStats stats = graph::degree_stats(g.adjacency);
  std::printf("R-MAT scale %d: %u vertices, %lu edges\n", scale, g.vertices(),
              static_cast<unsigned long>(g.edges()));
  std::printf("  degrees: mean %.1f, max %lu, Gini %.2f (heavy tail), "
              "top-1%% rows hold %.0f%% of edges\n",
              stats.mean, static_cast<unsigned long>(stats.max), stats.gini,
              100.0 * stats.top1_percent_share);

  // --- PageRank-style power iteration with both SpMV engines -------------
  const auto& a = g.adjacency;
  std::vector<double> x(a.cols(), 1.0 / a.cols());
  std::vector<double> y(a.rows());

  const spmv::CsrSpmvPlan plan(a, pool.size());
  common::Timer t_csr;
  for (int it = 0; it < iterations; ++it) {
    spmv::spmv(a, x, y, pool, plan);
    std::swap(x, y);
  }
  const double csr_s = t_csr.seconds();

  spmv::TiledOptions topt;
  topt.col_block = 8192;
  topt.row_block = 8192;
  spmv::TiledSpmv tiled(a, topt);
  std::fill(x.begin(), x.end(), 1.0 / a.cols());
  common::Timer t_tiled;
  for (int it = 0; it < iterations; ++it) {
    tiled.execute(x, y, pool);
    std::swap(x, y);
  }
  const double tiled_s = t_tiled.seconds();

  const double gflop =
      2.0 * static_cast<double>(a.nnz()) * iterations / 1e9;
  std::printf("\n%d power iterations (y = Ax):\n", iterations);
  std::printf("  CSR SpMV:   %6.2f s  (%.2f GFLOP/s)\n", csr_s,
              gflop / csr_s);
  std::printf("  tiled SpMV: %6.2f s  (%.2f GFLOP/s, %.0f nnz/tile)\n",
              tiled_s, gflop / tiled_s, tiled.mean_tile_nnz());

  // --- similarity search --------------------------------------------------
  jaccard::Options jopt;
  jopt.min_similarity = 0.5;
  common::Timer t_jac;
  const jaccard::Result sim = jaccard::all_pairs(g, pool, jopt);
  std::printf("\nAll-pairs Jaccard (J >= 0.5): %lu pairs in %.2f s "
              "(%.1f MB output)\n",
              static_cast<unsigned long>(sim.similarities.nnz()),
              t_jac.seconds(), sim.output_bytes / 1e6);

  // Show the strongest few pairs.
  int shown = 0;
  for (std::uint32_t i = 0; i < sim.similarities.rows() && shown < 5; ++i) {
    const auto cols = sim.similarities.row_cols(i);
    const auto vals = sim.similarities.row_values(i);
    for (std::size_t k = 0; k < cols.size() && shown < 5; ++k, ++shown)
      std::printf("  vertices %u ~ %u: J = %.2f\n", i, cols[k], vals[k]);
  }
  return 0;
}
