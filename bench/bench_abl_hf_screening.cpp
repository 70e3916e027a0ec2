// Ablation: Schwarz screening tolerance (paper §V-C uses 1e-10).
// Sweeps the tolerance and reports surviving ERIs, HF-Mem storage, and
// the energy drift relative to the tightest setting.
#include <climits>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/threading.hpp"
#include "hf/scf.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const auto carbons =
      bench::bounded_int_arg(args, "carbons", 6, 1, INT_MAX, "alkane length");
  const auto threads = bench::threads_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!carbons || !threads) return 2;

  bench::print_header("Ablation", "Schwarz screening tolerance sweep");

  common::ThreadPool pool(bench::pool_threads(*threads));
  hf::ScfSolver solver(hf::alkane(static_cast<int>(*carbons)), pool);

  // Tightest run is the reference energy.
  hf::ScfOptions reference;
  reference.screen_tolerance = 1e-14;
  const double e_ref = solver.run(reference).energy;
  const std::uint64_t all = solver.count_nonscreened(0.0);

  common::TextTable t({"Tolerance", "ERIs kept", "% of full tensor",
                       "HF-Mem storage", "|dE| vs 1e-14 (hartree)"});
  for (const double tol : {1e-12, 1e-10, 1e-8, 1e-6, 1e-4}) {
    hf::ScfOptions opt;
    opt.screen_tolerance = tol;
    const hf::ScfResult r = solver.run(opt);
    t.add_row({common::fmt_num(std::log10(tol), 0) == "0"
                   ? "1"
                   : "1e" + common::fmt_num(std::log10(tol), 0),
               std::to_string(r.eri_count),
               common::fmt_num(100.0 * r.eri_count / all, 1) + "%",
               common::fmt_bytes(static_cast<double>(r.eri_bytes)),
               common::fmt_num(std::abs(r.energy - e_ref), 10)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("The paper's 1e-10 keeps chemical accuracy while dropping a\n"
              "large share of the O(n_f^4) tensor — the knob that makes\n"
              "HF-Mem's storage fit even a multi-TB machine.\n");
  return 0;
}
