// Regenerates Figure 11: CSR SpMV performance across the
// UF-collection-style matrix suite, with Dense as the achievable peak.
#include <climits>
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "graph/matrices.hpp"
#include "graph/stats.hpp"
#include "spmv/csr_spmv.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const double size_factor =
      args.get_double("size-factor", 1.0, "matrix dimension scale");
  const auto reps =
      bench::bounded_int_arg(args, "reps", 5, 1, INT_MAX, "timed repetitions");
  const auto threads = bench::threads_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!reps || !threads) return 2;

  bench::print_header("Figure 11",
                      "CSR SpMV on the UF-style suite (synthetic stand-ins)");

  common::ThreadPool pool(bench::pool_threads(*threads));
  const auto suite = graph::figure11_suite(size_factor);

  common::TextTable t({"Matrix", "Rows", "nnz", "nnz/row", "GFLOP/s",
                       "% of Dense"});
  double dense_gflops = 0.0;
  for (const auto& entry : suite) {
    const auto& m = entry.matrix;
    std::vector<double> x(m.cols(), 1.0);
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = 1.0 + 1e-3 * static_cast<double>(i % 97);
    std::vector<double> y(m.rows());
    const spmv::CsrSpmvPlan plan(m, pool.size());

    spmv::spmv(m, x, y, pool, plan);  // warm
    common::Timer timer;
    for (int r = 0; r < *reps; ++r) spmv::spmv(m, x, y, pool, plan);
    const double gflops =
        spmv::spmv_flops(m) * *reps / timer.seconds() / 1e9;
    if (entry.name == "Dense") dense_gflops = gflops;

    t.add_row({entry.name, std::to_string(m.rows()),
               std::to_string(m.nnz()),
               common::fmt_num(static_cast<double>(m.nnz()) / m.rows(), 1),
               common::fmt_num(gflops, 2),
               dense_gflops > 0
                   ? common::fmt_num(100.0 * gflops / dense_gflops, 0) + "%"
                   : "-"});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "Paper shape: Dense sets the SpMV ceiling; the structured FEM/\n"
      "lattice matrices land close to it, while the scale-free and\n"
      "rectangular ones (Circuit, Webbase, LP) fall behind — motivating\n"
      "the two-phase graph SpMV of Figure 12.\n");
  return 0;
}
