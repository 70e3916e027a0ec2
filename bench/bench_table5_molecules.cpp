// Regenerates Table V: the test molecular systems — atoms, basis
// functions, non-screened ERI counts and the memory needed to store
// them (the HF-Mem working set).
//
// Host scaling note (DESIGN.md): the paper's molecules (alkane-842,
// graphene-252, DNA 5-mer, 1hsg-28/38 with cc-pVDZ) need terabytes of
// ERI storage; the factories build the same five *kinds* of system at
// host scale with the s-only basis.
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/threading.hpp"
#include "hf/scf.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const double tol =
      args.get_double("screen-tol", 1e-10, "Schwarz screening tolerance");
  const auto threads = bench::threads_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!threads) return 2;

  bench::print_header("Table V", "test molecular systems (host-scaled)");

  common::ThreadPool pool(bench::pool_threads(*threads));
  // Spatially extended systems, so Schwarz screening has far pairs to
  // drop — the paper's molecules span hundreds of atoms.
  const hf::Molecule molecules[] = {
      hf::alkane(24), hf::graphene(16), hf::dna_fragment(6),
      hf::protein_cluster(20, 7), hf::protein_cluster(40, 11),
  };

  common::TextTable t({"Molecule", "Atoms", "Functions", "Non-screened ERIs",
                       "Screened away", "Memory"});
  for (const auto& m : molecules) {
    hf::ScfSolver solver(m, pool);
    const std::uint64_t kept = solver.count_nonscreened(tol);
    const std::uint64_t all = solver.count_nonscreened(0.0);
    t.add_row({m.name, std::to_string(m.atoms.size()),
               std::to_string(solver.basis().size()), std::to_string(kept),
               common::fmt_num(100.0 * (all - kept) / all, 1) + "%",
               common::fmt_bytes(static_cast<double>(
                   kept * sizeof(hf::PackedEri)))});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "Paper shape: screening drops a large fraction of the O(n_f^4)\n"
      "tensor, yet the survivors still occupy memory only a large SMP\n"
      "holds (1.4-1.6 TB for the paper's systems at cc-pVDZ).\n");
  return 0;
}
