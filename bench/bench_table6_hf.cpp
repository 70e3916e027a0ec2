// Regenerates Table VI: HF-Comp (recompute ERIs every iteration) vs
// HF-Mem (precompute and stream) timings per molecule, with the
// speedup column — the paper's demonstration that the E870's memory
// capacity converts ERI recomputation into a memory-bound stream.
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/threading.hpp"
#include "hf/scf.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const auto threads = bench::threads_arg(args);
  const double size = args.get_double("size-factor", 1.0, "molecule scale");
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!threads) return 2;

  bench::print_header("Table VI", "HF-Comp vs HF-Mem timings (seconds)");

  common::ThreadPool pool(bench::pool_threads(*threads));
  const hf::Molecule molecules[] = {
      hf::alkane(static_cast<int>(8 * size)),
      hf::graphene(static_cast<int>(4 * size)),
      hf::dna_fragment(static_cast<int>(2 * size)),
      hf::protein_cluster(static_cast<int>(10 * size), 7),
      hf::protein_cluster(static_cast<int>(16 * size), 11),
  };

  common::TextTable t({"Molecule", "n_f", "Iters", "HF-Comp", "Precomp",
                       "Fock", "Density", "HF-Mem total", "Speedup",
                       "|dE|"});
  for (const auto& m : molecules) {
    hf::ScfSolver solver(m, pool);

    hf::ScfOptions comp;
    comp.mode = hf::EriMode::kRecompute;
    const hf::ScfResult rc = solver.run(comp);

    hf::ScfOptions mem;
    mem.mode = hf::EriMode::kPrecompute;
    const hf::ScfResult rm = solver.run(mem);

    t.add_row({m.name, std::to_string(solver.basis().size()),
               std::to_string(rm.iterations),
               common::fmt_num(rc.timings.total_s, 2),
               common::fmt_num(rm.timings.precompute_s, 2),
               common::fmt_num(rm.timings.fock_s, 3),
               common::fmt_num(rm.timings.density_s, 3),
               common::fmt_num(rm.timings.total_s, 2),
               common::fmt_num(rc.timings.total_s / rm.timings.total_s, 2),
               common::fmt_num(std::abs(rc.energy - rm.energy), 8)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "Paper shape: HF-Mem is ~3-5.3x faster than HF-Comp (alkane 3.0x,\n"
      "graphene 5.3x, 5-mer 4.8x, 1hsg 4.6-5.2x); Precomp is paid once\n"
      "and the per-iteration Fock build becomes a fast stream over the\n"
      "stored tensor.  Both modes converge to the same energy (|dE|).\n");
  return 0;
}
