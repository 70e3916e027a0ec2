// Tests for the Hartree-Fock library: integrals, screening, the Fock
// builders (fast vs brute force), and full SCF runs in both ERI modes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "hf/basis.hpp"
#include "hf/integrals.hpp"
#include "hf/scf.hpp"

namespace p8::hf {
namespace {

common::ThreadPool& pool() {
  static common::ThreadPool p(2);
  return p;
}

// ----------------------------------------------------------------- boys ----

TEST(Boys, LimitsAndValues) {
  EXPECT_NEAR(boys_f0(0.0), 1.0, 1e-12);
  EXPECT_NEAR(boys_f0(1e-12), 1.0, 1e-9);
  // F0(1) = 0.5*sqrt(pi)*erf(1) = 0.7468...
  EXPECT_NEAR(boys_f0(1.0), 0.746824132812427, 1e-12);
  // Large-x asymptote: sqrt(pi/x)/2.
  EXPECT_NEAR(boys_f0(100.0), 0.5 * std::sqrt(M_PI / 100.0), 1e-12);
}

TEST(Boys, MonotoneDecreasing) {
  double prev = boys_f0(1e-6);
  for (double x = 0.01; x < 50.0; x *= 2.0) {
    const double f = boys_f0(x);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

// ------------------------------------------------------------ integrals ----

TEST(Integrals, ContractedFunctionsAreNormalized) {
  const Molecule m = h2();
  const BasisSet basis = BasisSet::build(m);
  for (std::size_t i = 0; i < basis.size(); ++i)
    EXPECT_NEAR(overlap(basis[i], basis[i]), 1.0, 2e-3) << "fn " << i;
}

TEST(Integrals, OverlapDecaysWithDistance) {
  double prev = 1.0;
  for (const double r : {1.0, 2.0, 4.0, 8.0}) {
    const Molecule m = h2(r);
    const BasisSet b = BasisSet::build(m);
    const double s = overlap(b[0], b[1]);
    EXPECT_LT(s, prev);
    EXPECT_GT(s, 0.0);
    prev = s;
  }
}

TEST(Integrals, MatricesAreSymmetric) {
  const Molecule m = alkane(2);
  const BasisSet b = BasisSet::build(m);
  const la::Matrix s = overlap_matrix(b);
  const la::Matrix t = kinetic_matrix(b);
  const la::Matrix v = nuclear_matrix(b, m);
  for (std::size_t i = 0; i < b.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) {
      EXPECT_NEAR(s(i, j), s(j, i), 1e-14);
      EXPECT_NEAR(t(i, j), t(j, i), 1e-14);
      EXPECT_NEAR(v(i, j), v(j, i), 1e-14);
    }
}

TEST(Integrals, KineticIsPositiveOnDiagonal) {
  const BasisSet b = BasisSet::build(alkane(1));
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_GT(kinetic(b[i], b[i]), 0.0);
}

TEST(Integrals, NuclearAttractionIsNegative) {
  const Molecule m = h2();
  const BasisSet b = BasisSet::build(m);
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_LT(nuclear(b[i], b[i], m.atoms[0].position, 1), 0.0);
}

TEST(Integrals, EriPermutationalSymmetry) {
  const BasisSet b = BasisSet::build(dna_fragment(1));
  ASSERT_GE(b.size(), 4u);
  const double g = eri(b[0], b[1], b[2], b[3]);
  EXPECT_NEAR(eri(b[1], b[0], b[2], b[3]), g, 1e-12);
  EXPECT_NEAR(eri(b[0], b[1], b[3], b[2]), g, 1e-12);
  EXPECT_NEAR(eri(b[2], b[3], b[0], b[1]), g, 1e-12);
  EXPECT_NEAR(eri(b[3], b[2], b[1], b[0]), g, 1e-12);
}

TEST(Integrals, EriDiagonalPositive) {
  const BasisSet b = BasisSet::build(h2());
  EXPECT_GT(eri(b[0], b[0], b[0], b[0]), 0.0);
  EXPECT_GT(eri(b[0], b[1], b[0], b[1]), 0.0);
}

TEST(Integrals, PairEriMatchesReference) {
  // The shell-pair fast path must agree with the direct contraction.
  const BasisSet b = BasisSet::build(dna_fragment(1));
  const std::size_t n = std::min<std::size_t>(b.size(), 6);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = 0; l <= k; ++l) {
          const ShellPair ij = make_shell_pair(b[i], b[j]);
          const ShellPair kl = make_shell_pair(b[k], b[l]);
          EXPECT_NEAR(eri(ij, kl), eri(b[i], b[j], b[k], b[l]), 1e-12);
        }
}

TEST(Integrals, ShellPairPrimitiveCount) {
  const BasisSet b = BasisSet::build(h2());
  const ShellPair p = make_shell_pair(b[0], b[1]);
  EXPECT_EQ(p.primitives.size(),
            b[0].primitives.size() * b[1].primitives.size());
}

TEST(Integrals, SchwarzInequalityHolds) {
  const BasisSet b = BasisSet::build(alkane(1));
  for (std::size_t i = 0; i < b.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j)
      for (std::size_t k = 0; k < b.size(); ++k)
        for (std::size_t l = 0; l < b.size(); ++l) {
          const double g = std::abs(eri(b[i], b[j], b[k], b[l]));
          const double bound =
              std::sqrt(eri(b[i], b[j], b[i], b[j])) *
              std::sqrt(eri(b[k], b[l], b[k], b[l]));
          EXPECT_LE(g, bound + 1e-10);
        }
}

// ------------------------------------------------------------- molecules ---

TEST(Molecules, ElectronCountsAreEven) {
  EXPECT_EQ(h2().electrons() % 2, 0);
  EXPECT_EQ(alkane(3).electrons() % 2, 0);
  EXPECT_EQ(graphene(4).electrons() % 2, 0);
  EXPECT_EQ(dna_fragment(2).electrons() % 2, 0);
  EXPECT_EQ(protein_cluster(9, 3).electrons() % 2, 0);
}

TEST(Molecules, AlkaneComposition) {
  const Molecule m = alkane(4);
  int carbons = 0;
  int hydrogens = 0;
  for (const auto& a : m.atoms) {
    if (a.atomic_number == 6) ++carbons;
    if (a.atomic_number == 1) ++hydrogens;
  }
  EXPECT_EQ(carbons, 4);
  EXPECT_EQ(hydrogens, 2 * 4 + 2);
}

TEST(Molecules, NuclearRepulsionPositiveAndDecaying) {
  EXPECT_GT(h2(1.0).nuclear_repulsion(), h2(2.0).nuclear_repulsion());
  EXPECT_NEAR(h2(1.4).nuclear_repulsion(), 1.0 / 1.4, 1e-12);
}

TEST(Molecules, AtomsAreSeparated) {
  for (const Molecule& m :
       {alkane(6), graphene(6), dna_fragment(3), protein_cluster(20, 7)}) {
    for (std::size_t i = 0; i < m.atoms.size(); ++i)
      for (std::size_t j = i + 1; j < m.atoms.size(); ++j)
        EXPECT_GT(distance_sq(m.atoms[i].position, m.atoms[j].position), 0.5)
            << m.name << " atoms " << i << "," << j;
  }
}

TEST(Molecules, DoubleZetaGrowsBasis) {
  const Molecule m = alkane(2);
  const std::size_t single = BasisSet::build(m).size();
  BasisOptions dz;
  dz.double_zeta = true;
  EXPECT_EQ(BasisSet::build(m, dz).size(), single + m.atoms.size());
}

// ------------------------------------------------------------------- SCF ---

TEST(Scf, H2EnergyMatchesLiterature) {
  // RHF/STO-3G at 1.4 bohr: -1.11671 hartree (Szabo & Ostlund).
  ScfSolver solver(h2(), pool());
  const ScfResult r = solver.run();
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, -1.1167, 2e-3);
}

TEST(Scf, FastFockMatchesBruteForce) {
  for (const Molecule& m : {h2(), alkane(1), dna_fragment(1)}) {
    ScfSolver solver(m, pool());
    const la::Matrix p = solver.density_from_fock(
        core_hamiltonian(solver.basis(), solver.molecule()));
    const la::Matrix ref = solver.fock_reference(p);
    const la::Matrix fast = solver.fock(p, 0.0);
    EXPECT_LT(ref.distance(fast), 1e-10) << m.name;
  }
}

TEST(Scf, ListFockMatchesRecompute) {
  ScfSolver solver(alkane(1), pool());
  const la::Matrix p = solver.density_from_fock(
      core_hamiltonian(solver.basis(), solver.molecule()));
  const auto list = solver.precompute_eris(1e-12);
  EXPECT_LT(solver.fock(p, 1e-12).distance(solver.fock_from_list(p, list)),
            1e-10);
}

TEST(Scf, ScreeningIsMonotoneInTolerance) {
  ScfSolver solver(alkane(3), pool());
  const auto loose = solver.count_nonscreened(1e-6);
  const auto tight = solver.count_nonscreened(1e-12);
  const auto none = solver.count_nonscreened(0.0);
  EXPECT_LE(loose, tight);
  EXPECT_LE(tight, none);
  const std::size_t n = solver.basis().size();
  const std::size_t pairs = n * (n + 1) / 2;
  EXPECT_EQ(none, pairs * (pairs + 1) / 2);
}

TEST(Scf, ScreeningDropsFarQuartetsOnChains) {
  // A long chain has many far-apart shell pairs: screening must bite.
  ScfSolver solver(alkane(6), pool());
  const auto kept = solver.count_nonscreened(1e-10);
  const auto all = solver.count_nonscreened(0.0);
  EXPECT_LT(kept, all);
}

TEST(Scf, PrecomputeCountMatchesCounter) {
  ScfSolver solver(alkane(2), pool());
  const double tol = 1e-10;
  EXPECT_EQ(solver.precompute_eris(tol).size(),
            solver.count_nonscreened(tol));
}

TEST(Scf, BothModesAgreeOnEnergy) {
  ScfSolver solver(dna_fragment(1), pool());
  ScfOptions comp;
  comp.mode = EriMode::kRecompute;
  ScfOptions mem;
  mem.mode = EriMode::kPrecompute;
  const ScfResult a = solver.run(comp);
  const ScfResult b = solver.run(mem);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NEAR(a.energy, b.energy, 1e-6);
  EXPECT_EQ(b.eri_bytes, b.eri_count * sizeof(PackedEri));
}

TEST(Scf, DensityTraceCountsElectrons) {
  const Molecule m = alkane(1);
  ScfSolver solver(m, pool());
  const ScfResult r = solver.run();
  // tr(P S) = N_electrons.
  const la::Matrix s = overlap_matrix(solver.basis());
  EXPECT_NEAR(la::trace_product(r.density, s),
              static_cast<double>(m.electrons()), 1e-6);
}

TEST(Scf, EnergyIsBelowCoreGuess) {
  // SCF must lower the energy relative to the first iteration estimate
  // and converge to something negative.
  ScfSolver solver(alkane(1), pool());
  const ScfResult r = solver.run();
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.energy, 0.0);
}

TEST(Scf, TimingsArePopulated) {
  ScfSolver solver(h2(), pool());
  ScfOptions mem;
  mem.mode = EriMode::kPrecompute;
  const ScfResult r = solver.run(mem);
  EXPECT_GE(r.timings.precompute_s, 0.0);
  EXPECT_GT(r.timings.total_s, 0.0);
  EXPECT_GT(r.iterations, 0);
}

TEST(Scf, RejectsOddElectronCount) {
  Molecule m;
  m.name = "H";
  m.atoms.push_back({1, {0, 0, 0}});
  EXPECT_THROW(ScfSolver(m, pool()), std::invalid_argument);
}

TEST(Scf, LooseScreeningBarelyMovesEnergy) {
  ScfSolver solver(alkane(2), pool());
  ScfOptions tight;
  tight.screen_tolerance = 1e-12;
  ScfOptions loose;
  loose.screen_tolerance = 1e-7;
  const double e_tight = solver.run(tight).energy;
  const double e_loose = solver.run(loose).energy;
  EXPECT_NEAR(e_tight, e_loose, 1e-4);
}

TEST(Scf, DoubleZetaIsVariational) {
  // Enlarging the basis can only lower the converged RHF energy (the
  // variational principle) — a strong end-to-end correctness check on
  // integrals + SCF together.
  for (const Molecule& m : {h2(), alkane(1)}) {
    common::ThreadPool& p = pool();
    ScfSolver small(m, p);
    BasisOptions dz;
    dz.double_zeta = true;
    ScfSolver big(m, p, dz);
    const double e_small = small.run().energy;
    const double e_big = big.run().energy;
    EXPECT_LE(e_big, e_small + 1e-9) << m.name;
  }
}

TEST(Scf, EnergyInvariantToThreadCount) {
  // Parallel Fock accumulation must not change the physics.
  const Molecule m = alkane(1);
  common::ThreadPool p1(1);
  common::ThreadPool p4(4);
  ScfSolver s1(m, p1);
  ScfSolver s4(m, p4);
  EXPECT_NEAR(s1.run().energy, s4.run().energy, 1e-9);
}

std::vector<std::uint64_t> bits(const la::Matrix& m) {
  std::vector<std::uint64_t> out;
  for (const double v : m.data())
    out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(Scf, FockIsBitIdenticalAcrossRuns) {
  // Which worker sums each quartet is fixed by the pair index, not by
  // the thread schedule, so repeated builds round identically in both
  // ERI modes (Table VI's |dE| column depends on it).
  common::ThreadPool p3(3);
  ScfSolver solver(alkane(4), p3);
  const la::Matrix p = solver.density_from_fock(
      core_hamiltonian(solver.basis(), solver.molecule()));
  const double tol = 1e-10;
  const auto comp = bits(solver.fock(p, tol));
  const auto mem = bits(solver.fock_from_list(p, solver.precompute_eris(tol)));
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(bits(solver.fock(p, tol)), comp) << "HF-Comp run " << run;
    EXPECT_EQ(bits(solver.fock_from_list(p, solver.precompute_eris(tol))), mem)
        << "HF-Mem run " << run;
  }
}

TEST(Scf, PurificationDensityMatchesDiagonalization) {
  ScfSolver solver(alkane(1), pool());
  const la::Matrix f = core_hamiltonian(solver.basis(), solver.molecule());
  const la::Matrix via_diag =
      solver.density_from_fock(f, DensityMethod::kDiagonalize);
  const la::Matrix via_purify =
      solver.density_from_fock(f, DensityMethod::kPurify);
  EXPECT_LT(via_diag.distance(via_purify), 1e-5);
}

TEST(Scf, PurificationScfMatchesDiagonalizationScf) {
  ScfSolver solver(alkane(2), pool());
  ScfOptions diag;
  ScfOptions pur;
  pur.density = DensityMethod::kPurify;
  const double e_diag = solver.run(diag).energy;
  const ScfResult r_pur = solver.run(pur);
  ASSERT_TRUE(r_pur.converged);
  EXPECT_NEAR(r_pur.energy, e_diag, 1e-5);
}

TEST(Scf, DiisConvergesAtLeastAsFast) {
  ScfSolver solver(dna_fragment(1), pool());
  ScfOptions plain;
  ScfOptions accelerated;
  accelerated.diis = true;
  const ScfResult a = solver.run(plain);
  const ScfResult b = solver.run(accelerated);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_LE(b.iterations, a.iterations);
  EXPECT_NEAR(a.energy, b.energy, 1e-6);
}

TEST(Scf, DiisErrorVanishesAtConvergence) {
  ScfSolver solver(alkane(1), pool());
  ScfOptions opt;
  opt.convergence = 1e-9;
  opt.diis = true;
  const ScfResult r = solver.run(opt);
  ASSERT_TRUE(r.converged);
  const la::Matrix f = solver.fock(r.density, 1e-12);
  EXPECT_LT(solver.diis_error(f, r.density).max_abs(), 1e-6);
}

TEST(Scf, DiisWorksWithPrecompute) {
  ScfSolver solver(alkane(2), pool());
  ScfOptions opt;
  opt.diis = true;
  opt.mode = EriMode::kPrecompute;
  const ScfResult r = solver.run(opt);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.energy, 0.0);
}

class ScfMolecules : public ::testing::TestWithParam<int> {};

TEST_P(ScfMolecules, AlkanesConvergeAndScale) {
  const int n = GetParam();
  ScfSolver solver(alkane(n), pool());
  const ScfResult r = solver.run();
  EXPECT_TRUE(r.converged) << "alkane-" << n;
  EXPECT_LT(r.energy, 0.0);
  // Energy roughly extensive: more carbons, lower energy.
  if (n > 1) {
    ScfSolver smaller(alkane(n - 1), pool());
    EXPECT_LT(r.energy, smaller.run().energy);
  }
}

INSTANTIATE_TEST_SUITE_P(Chains, ScfMolecules, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace p8::hf
