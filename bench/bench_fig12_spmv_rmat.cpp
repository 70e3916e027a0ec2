// Regenerates Figure 12: two-phase tiled SpMV on R-MAT adjacency
// matrices vs scale, against plain CSR as the baseline.
//
// Host scaling note (DESIGN.md): the paper reaches scale 31 (2 G nodes,
// 68 G edges) on 8 TB; this host sweeps scales 12..18 by default.  The
// shapes: the tiled algorithm beats CSR on scale-free inputs, and its
// performance decays as the mean tile population shrinks with scale.
#include <climits>
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "graph/rmat.hpp"
#include "spmv/csr_spmv.hpp"
#include "spmv/graph_spmv.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const auto min_scale =
      bench::bounded_int_arg(args, "min-scale", 12, 1, 30, "first R-MAT scale");
  const auto max_scale =
      bench::bounded_int_arg(args, "max-scale", 18, 1, 30, "last R-MAT scale");
  const auto reps =
      bench::bounded_int_arg(args, "reps", 3, 1, INT_MAX, "timed repetitions");
  const auto threads = bench::threads_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!min_scale || !max_scale || !reps || !threads) return 2;

  bench::print_header("Figure 12", "graph SpMV on R-MAT adjacency matrices");

  common::ThreadPool pool(bench::pool_threads(*threads));
  common::TextTable t({"Scale", "nnz", "Tiled GFLOP/s", "CSR GFLOP/s",
                       "Tiled/CSR", "mean tile nnz"});
  for (int scale = static_cast<int>(*min_scale); scale <= *max_scale;
       ++scale) {
    graph::RmatOptions opt;
    opt.scale = scale;
    opt.edge_factor = 16;
    const graph::CsrMatrix a = graph::rmat_adjacency(opt);

    std::vector<double> x(a.cols());
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = 1.0 + 1e-3 * static_cast<double>(i % 89);
    std::vector<double> y(a.rows());

    spmv::TiledOptions topt;  // cache-sized blocks
    topt.col_block = 8192;
    topt.row_block = 8192;
    spmv::TiledSpmv tiled(a, topt);
    tiled.execute(x, y, pool);  // warm
    common::Timer tt;
    for (int r = 0; r < *reps; ++r) tiled.execute(x, y, pool);
    const double tiled_gflops =
        2.0 * static_cast<double>(a.nnz()) * *reps / tt.seconds() / 1e9;

    const spmv::CsrSpmvPlan plan(a, pool.size());
    spmv::spmv(a, x, y, pool, plan);  // warm
    common::Timer tc;
    for (int r = 0; r < *reps; ++r) spmv::spmv(a, x, y, pool, plan);
    const double csr_gflops =
        2.0 * static_cast<double>(a.nnz()) * *reps / tc.seconds() / 1e9;

    t.add_row({std::to_string(scale), std::to_string(a.nnz()),
               common::fmt_num(tiled_gflops, 2),
               common::fmt_num(csr_gflops, 2),
               common::fmt_num(tiled_gflops / csr_gflops, 2),
               common::fmt_num(tiled.mean_tile_nnz(), 0)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "Paper shape: performance decreases with scale because the average\n"
      "nonzeros per tile shrink (R-MAT 24: ~12,000/tile; R-MAT 31: ~63),\n"
      "until blocks are too small for effective prefetch.\n");
  return 0;
}
