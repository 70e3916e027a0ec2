// Companion to Figure 9: runs native implementations of the four
// kernels the paper places on the roofline (SpMV, 3-D stencil,
// lattice-Boltzmann, 3-D FFT), measures their host GFLOP/s and
// operational intensity, and reports the E870 roofline bound at each
// kernel's measured OI.
#include <cstdio>
#include <vector>

#include "arch/spec.hpp"
#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "graph/matrices.hpp"
#include "kernels/fft.hpp"
#include "kernels/lbm.hpp"
#include "kernels/stencil.hpp"
#include "roofline/roofline.hpp"
#include "spmv/csr_spmv.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const auto threads = bench::threads_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!threads) return 2;

  bench::print_header("Figure 9 (measured kernels)",
                      "native kernel runs placed on the E870 roofline");

  common::ThreadPool pool(bench::pool_threads(*threads));
  const auto roofline = roofline::RooflineModel::from_spec(arch::e870());

  common::TextTable t({"Kernel", "measured OI", "host GFLOP/s",
                       "E870 bound (GFLOP/s)", "bound by"});
  auto add = [&](const std::string& name, double oi, double gflops) {
    t.add_row({name, common::fmt_num(oi, 2), common::fmt_num(gflops, 2),
               common::fmt_num(roofline.attainable_gflops(oi), 0),
               oi < roofline.ridge_oi() ? "memory" : "compute"});
  };

  {  // SpMV on a banded FEM matrix.
    const graph::CsrMatrix a = graph::fem_banded(20000, 3, 15, 60, 3);
    std::vector<double> x(a.cols(), 1.0);
    std::vector<double> y(a.rows());
    const spmv::CsrSpmvPlan plan(a, pool.size());
    spmv::spmv(a, x, y, pool, plan);
    common::Timer timer;
    const int reps = 10;
    for (int r = 0; r < reps; ++r) spmv::spmv(a, x, y, pool, plan);
    const double flops = spmv::spmv_flops(a) * reps;
    // Compulsory bytes: 12 B per nonzero (value + index) + vectors.
    const double bytes =
        (12.0 * static_cast<double>(a.nnz()) + 16.0 * a.rows()) * reps;
    add("SpMV", flops / bytes, flops / timer.seconds() / 1e9);
  }

  {  // 7-point stencil.
    const kernels::StencilGrid grid{128, 128, 64};
    const kernels::Stencil7 st(grid);
    std::vector<double> field(grid.points(), 1.0);
    std::vector<double> other(grid.points());
    st.sweep(field, other, pool);
    common::Timer timer;
    const int sweeps = 10;
    for (int s = 0; s < sweeps; ++s) {
      st.sweep(field, other, pool);
      std::swap(field, other);
    }
    add("Stencil", st.operational_intensity(),
        st.flops_per_sweep() * sweeps / timer.seconds() / 1e9);
  }

  {  // Lattice Boltzmann (LBMHD stand-in).
    kernels::LbmD3Q19 lbm(48, 48, 32);
    lbm.initialize(1.0, 0.03, 0.0, 0.0);
    lbm.step(pool);
    common::Timer timer;
    const int steps = 5;
    for (int s = 0; s < steps; ++s) lbm.step(pool);
    add("LBM (for LBMHD)", lbm.operational_intensity(),
        lbm.flops_per_step() * steps / timer.seconds() / 1e9);
  }

  {  // 3-D FFT.
    const kernels::Fft3D fft(64, 64, 64);
    std::vector<kernels::Complex> field(fft.points(), {1.0, 0.0});
    fft.transform(field, pool);
    common::Timer timer;
    const int reps = 5;
    for (int r = 0; r < reps; ++r)
      fft.transform(field, pool, r % 2 == 1);
    add("3D FFT", fft.operational_intensity(),
        fft.flops_per_transform() * reps / timer.seconds() / 1e9);
  }

  std::printf("%s\n", t.to_string().c_str());

  // An FFT's intensity is 5 log2(N) flops per 96 streamed bytes, so it
  // grows with the transform: the paper's 1.64 corresponds to the
  // billion-point transforms a 8 TB machine runs.
  const kernels::Fft3D paper_fft(2048, 2048, 512);
  std::printf(
      "Measured OIs land where the paper plots them (SpMV ~0.2, Stencil\n"
      "~0.5, LBM(HD) ~1): memory bound on the E870.  The FFT's OI grows\n"
      "with size — %.2f at this host-sized 64^3 box, %.2f at a\n"
      "paper-scale 2048x2048x512 transform (paper: 1.64, just past the\n"
      "1.2 ridge).  Host GFLOP/s columns are container-bound and not\n"
      "comparable to E870 numbers.\n",
      kernels::Fft3D(64, 64, 64).operational_intensity(),
      paper_fft.operational_intensity());
  return 0;
}
