// kernels_demo: the Figure 9 kernels doing actual science.
//
//  * heat diffusion with the 7-point stencil (watch a hot spot decay),
//  * channel flow relaxing under the D3Q19 lattice-Boltzmann model,
//  * spectral low-pass filtering of a noisy field with the 3-D FFT.
//
// Each section reports the kernel's operational intensity and the
// E870 roofline bound at it.
#include <cmath>
#include <cstdio>

#include "arch/spec.hpp"
#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "kernels/fft.hpp"
#include "kernels/lbm.hpp"
#include "kernels/stencil.hpp"
#include "roofline/roofline.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const auto threads = bench::threads_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!threads) return 2;
  common::ThreadPool pool(bench::pool_threads(*threads));
  const auto roofline = roofline::RooflineModel::from_spec(arch::e870());

  // ---- 1. heat diffusion ---------------------------------------------------
  {
    const kernels::StencilGrid grid{64, 64, 64};
    const kernels::Stencil7 stencil(grid);  // weights sum to 1: diffusive
    std::vector<double> field(grid.points(), 0.0);
    field[grid.index(32, 32, 32)] = 1000.0;  // hot spot
    common::Timer timer;
    const auto final_field = stencil.run(std::move(field), 50, pool);
    std::printf("Stencil: 50 diffusion sweeps on 64^3 in %.2f s\n",
                timer.seconds());
    std::printf("  hot spot %.1f -> %.3f; neighbors warmed to %.3f\n",
                1000.0, final_field[grid.index(32, 32, 32)],
                final_field[grid.index(36, 32, 32)]);
    std::printf("  OI %.2f -> E870 bound %.0f GFLOP/s\n\n",
                stencil.operational_intensity(),
                roofline.attainable_gflops(stencil.operational_intensity()));
  }

  // ---- 2. lattice-Boltzmann flow -------------------------------------------
  {
    kernels::LbmD3Q19 lbm(32, 32, 16);
    lbm.initialize(1.0, 0.05, 0.0, 0.0);
    const double mass0 = lbm.total_mass();
    common::Timer timer;
    for (int s = 0; s < 20; ++s) lbm.step(pool);
    const auto m = lbm.macroscopic(16, 16, 8);
    std::printf("LBM: 20 D3Q19 steps on 32x32x16 in %.2f s\n",
                timer.seconds());
    std::printf("  mass drift %.2e (conserved), mid-channel u = (%.4f, "
                "%.1e, %.1e)\n",
                std::abs(lbm.total_mass() - mass0) / mass0, m.ux, m.uy,
                m.uz);
    std::printf("  OI %.2f -> E870 bound %.0f GFLOP/s\n\n",
                lbm.operational_intensity(),
                roofline.attainable_gflops(lbm.operational_intensity()));
  }

  // ---- 3. spectral filtering ------------------------------------------------
  {
    const kernels::Fft3D fft(32, 32, 32);
    std::vector<kernels::Complex> field(fft.points());
    common::Xoshiro256 rng(5);
    // Smooth signal + noise.
    for (std::size_t z = 0; z < 32; ++z)
      for (std::size_t y = 0; y < 32; ++y)
        for (std::size_t x = 0; x < 32; ++x)
          field[fft.index(x, y, z)] = {
              std::sin(2.0 * M_PI * x / 32.0) +
                  0.5 * (rng.uniform() - 0.5),
              0.0};
    common::Timer timer;
    fft.transform(field, pool);
    // Low-pass: kill everything beyond the 4th mode in each dimension.
    std::size_t kept = 0;
    for (std::size_t z = 0; z < 32; ++z)
      for (std::size_t y = 0; y < 32; ++y)
        for (std::size_t x = 0; x < 32; ++x) {
          const auto fold = [](std::size_t k) {
            return std::min(k, 32 - k);
          };
          if (fold(x) > 4 || fold(y) > 4 || fold(z) > 4)
            field[fft.index(x, y, z)] = {0.0, 0.0};
          else
            ++kept;
        }
    fft.transform(field, pool, /*inverse=*/true);
    std::printf("FFT: forward + low-pass (%zu modes kept) + inverse on "
                "32^3 in %.2f s\n",
                kept, timer.seconds());
    // The filtered field should track the clean sine closely.
    double err = 0.0;
    for (std::size_t x = 0; x < 32; ++x)
      err += std::abs(field[fft.index(x, 16, 16)].real() -
                      std::sin(2.0 * M_PI * x / 32.0));
    std::printf("  mean deviation from the clean signal: %.3f (noise was "
                "+/-0.25)\n",
                err / 32.0);
    std::printf("  OI %.2f -> E870 bound %.0f GFLOP/s\n",
                fft.operational_intensity(),
                roofline.attainable_gflops(fft.operational_intensity()));
  }
  return 0;
}
