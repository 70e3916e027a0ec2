#include "hf/scf.hpp"

#include <atomic>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace p8::hf {

namespace {

/// Expands the 8-fold permutational orbit of a quartet into the
/// distinct index tuples it represents.  Returns the count (1..8).
int expand_quartet(std::size_t i, std::size_t j, std::size_t k,
                   std::size_t l, std::size_t out[8][4]) {
  int n = 0;
  auto push = [&](std::size_t a, std::size_t b, std::size_t c,
                  std::size_t d) {
    for (int t = 0; t < n; ++t)
      if (out[t][0] == a && out[t][1] == b && out[t][2] == c &&
          out[t][3] == d)
        return;
    out[n][0] = a;
    out[n][1] = b;
    out[n][2] = c;
    out[n][3] = d;
    ++n;
  };
  push(i, j, k, l);
  push(j, i, k, l);
  push(i, j, l, k);
  push(j, i, l, k);
  push(k, l, i, j);
  push(l, k, i, j);
  push(k, l, j, i);
  push(l, k, j, i);
  return n;
}

/// Decodes a pair index p back to (i, j) with i >= j.
std::pair<std::size_t, std::size_t> decode_pair(std::size_t p) {
  std::size_t i = static_cast<std::size_t>(
      (std::sqrt(8.0 * static_cast<double>(p) + 1.0) - 1.0) / 2.0);
  while (i * (i + 1) / 2 > p) --i;
  while ((i + 1) * (i + 2) / 2 <= p) ++i;
  return {i, p - i * (i + 1) / 2};
}

}  // namespace

ScfSolver::ScfSolver(Molecule molecule, common::ThreadPool& pool,
                     const BasisOptions& basis_options)
    : molecule_(std::move(molecule)),
      pool_(pool),
      basis_(BasisSet::build(molecule_, basis_options)) {
  P8_REQUIRE(molecule_.electrons() % 2 == 0,
             "restricted HF needs an even electron count");
  P8_REQUIRE(basis_.size() >= 1, "empty basis");
  P8_REQUIRE(basis_.size() <= 65535, "PackedEri indices are 16-bit");
  P8_REQUIRE(static_cast<std::size_t>(molecule_.electrons() / 2) <=
                 basis_.size(),
             "basis too small for the electron count");

  hcore_ = core_hamiltonian(basis_, molecule_);
  overlap_ = overlap_matrix(basis_);
  x_ = la::inverse_sqrt(overlap_);

  // Shell-pair data and Schwarz bounds Q_ij = sqrt((ij|ij)), built in
  // parallel over rows.
  const std::size_t n = basis_.size();
  pairs_.resize(n * (n + 1) / 2);
  schwarz_.assign(n * (n + 1) / 2, 0.0);
  pool_.parallel_for_dynamic(0, n, 4, [&](std::size_t i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const std::size_t p = pair_index(i, j);
      pairs_[p] = make_shell_pair(basis_[i], basis_[j]);
      schwarz_[p] = std::sqrt(std::max(0.0, eri(pairs_[p], pairs_[p])));
    }
  });
}

std::uint64_t ScfSolver::count_nonscreened(double tolerance) const {
  const std::size_t n = basis_.size();
  const std::size_t pairs = n * (n + 1) / 2;
  std::atomic<std::uint64_t> kept{0};
  pool_.parallel_for_dynamic(0, pairs, 64, [&](std::size_t p) {
    std::uint64_t local = 0;
    const double qp = schwarz_[p];
    for (std::size_t q = 0; q <= p; ++q)
      if (qp * schwarz_[q] >= tolerance) ++local;
    kept.fetch_add(
        local, std::memory_order_relaxed);  // p8lint: allow(conc-weak-atomic) count-only reduction; read after join
  });
  return kept.load();
}

void ScfSolver::add_quartet(la::Matrix& j_mat, la::Matrix& k_mat,
                            const la::Matrix& density, std::size_t i,
                            std::size_t jj, std::size_t k, std::size_t l,
                            double g) const {
  std::size_t perms[8][4];
  const int count = expand_quartet(i, jj, k, l, perms);
  for (int t = 0; t < count; ++t) {
    const std::size_t p = perms[t][0];
    const std::size_t q = perms[t][1];
    const std::size_t r = perms[t][2];
    const std::size_t s = perms[t][3];
    // J_pq = sum_rs P_rs (pq|rs);  K_pr = sum_qs P_qs (pq|rs).
    j_mat(p, q) += density(r, s) * g;
    k_mat(p, r) += density(q, s) * g;
  }
}

la::Matrix ScfSolver::fock_reference(const la::Matrix& density) const {
  const std::size_t n = basis_.size();
  la::Matrix jm(n, n);
  la::Matrix km(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = 0; l < n; ++l) {
          const double g = eri(basis_[i], basis_[j], basis_[k], basis_[l]);
          jm(i, j) += density(k, l) * g;   // (ij|kl)
          km(i, k) += density(j, l) * g;   // exchange pairing
        }
  la::Matrix f = hcore_;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      f(i, j) += jm(i, j) - 0.5 * km(i, j);
  return f;
}

la::Matrix ScfSolver::fock(const la::Matrix& density,
                           double screen_tolerance) const {
  const std::size_t n = basis_.size();
  const std::size_t pairs = n * (n + 1) / 2;

  struct Partial {
    la::Matrix j, k;
  };
  std::vector<Partial> partials(pool_.size());
  for (auto& p : partials) {
    p.j = la::Matrix(n, n);
    p.k = la::Matrix(n, n);
  }

  // Pairs are dealt to workers cyclically, so which partial sums each
  // quartet (and so the rounding of the merged matrix) does not depend
  // on the thread schedule.
  const std::size_t workers = pool_.size();
  pool_.run_on_all([&](std::size_t worker) {
    Partial& acc = partials[worker];
    for (std::size_t p = worker; p < pairs; p += workers) {
      const auto [ii, jj] = decode_pair(p);
      const double qp = schwarz_[p];
      if (qp == 0.0) continue;
      for (std::size_t q = 0; q <= p; ++q) {
        if (qp * schwarz_[q] < screen_tolerance) continue;
        const auto [kk, ll] = decode_pair(q);
        const double g = eri(pairs_[p], pairs_[q]);
        add_quartet(acc.j, acc.k, density, ii, jj, kk, ll, g);
      }
    }
  });

  la::Matrix f = hcore_;
  for (const auto& p : partials)
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        f(r, c) += p.j(r, c) - 0.5 * p.k(r, c);
  la::symmetrize(f);
  return f;
}

std::vector<PackedEri> ScfSolver::precompute_eris(
    double screen_tolerance) const {
  const std::size_t n = basis_.size();
  const std::size_t pairs = n * (n + 1) / 2;

  // Each pair's surviving quartets are counted first and written at a
  // fixed offset, so the list is in pair order whatever the schedule
  // and fock_from_list's static split always sums the same quartets.
  const auto survives = [&](double qp, std::size_t q) {
    return qp * schwarz_[q] >= screen_tolerance;
  };
  std::vector<std::size_t> offset(pairs + 1, 0);
  pool_.parallel_for_dynamic(0, pairs, 64, [&](std::size_t p) {
    const double qp = schwarz_[p];
    if (qp == 0.0) return;
    std::size_t kept = 0;
    for (std::size_t q = 0; q <= p; ++q)
      if (survives(qp, q)) ++kept;
    offset[p + 1] = kept;
  });
  for (std::size_t p = 0; p < pairs; ++p) offset[p + 1] += offset[p];

  std::vector<PackedEri> list(offset[pairs]);
  pool_.parallel_for_dynamic(0, pairs, 1, [&](std::size_t p) {
    const double qp = schwarz_[p];
    if (qp == 0.0) return;
    const auto [ii, jj] = decode_pair(p);
    std::size_t out = offset[p];
    for (std::size_t q = 0; q <= p; ++q) {
      if (!survives(qp, q)) continue;
      const auto [kk, ll] = decode_pair(q);
      PackedEri& e = list[out++];
      e.i = static_cast<std::uint16_t>(ii);
      e.j = static_cast<std::uint16_t>(jj);
      e.k = static_cast<std::uint16_t>(kk);
      e.l = static_cast<std::uint16_t>(ll);
      e.value = eri(pairs_[p], pairs_[q]);
    }
  });
  return list;
}

la::Matrix ScfSolver::fock_from_list(const la::Matrix& density,
                                     const std::vector<PackedEri>& list) const {
  const std::size_t n = basis_.size();
  struct Partial {
    la::Matrix j, k;
  };
  std::vector<Partial> partials(pool_.size());
  for (auto& p : partials) {
    p.j = la::Matrix(n, n);
    p.k = la::Matrix(n, n);
  }
  pool_.run_on_all([&](std::size_t worker) {
    Partial& acc = partials[worker];
    const auto [lo, hi] = pool_.static_range(0, list.size(), worker);
    for (std::size_t e = lo; e < hi; ++e) {
      const PackedEri& rec = list[e];
      add_quartet(acc.j, acc.k, density, rec.i, rec.j, rec.k, rec.l,
                  rec.value);
    }
  });
  la::Matrix f = hcore_;
  for (const auto& p : partials)
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        f(r, c) += p.j(r, c) - 0.5 * p.k(r, c);
  la::symmetrize(f);
  return f;
}

la::Matrix ScfSolver::density_from_fock(const la::Matrix& fock_matrix,
                                        DensityMethod method) const {
  const std::size_t n = basis_.size();
  const std::size_t occ = static_cast<std::size_t>(occupied_orbitals());
  // F' = X^T F X: the orthogonalized Fock matrix.
  const la::Matrix fprime =
      la::multiply(la::multiply(x_.transposed(), fock_matrix), x_);

  if (method == DensityMethod::kPurify) {
    // Spectral projector without diagonalization; P = 2 X D X^T.
    const la::PurificationResult pur = la::purify(fprime, occ);
    P8_ASSERT(pur.converged, "purification failed to converge");
    la::Matrix p = la::multiply(la::multiply(x_, pur.projector),
                                x_.transposed());
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t s = 0; s < n; ++s) p(r, s) *= 2.0;
    la::symmetrize(p);
    return p;
  }

  // Diagonalize; C = X C'; P = 2 C_occ C_occ^T.
  const la::EigenResult eig = la::symmetric_eigen(fprime);
  const la::Matrix c = la::multiply(x_, eig.vectors);
  la::Matrix p(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t s = 0; s < n; ++s) {
      double sum = 0.0;
      for (std::size_t m = 0; m < occ; ++m) sum += c(r, m) * c(s, m);
      p(r, s) = 2.0 * sum;
    }
  return p;
}

la::Matrix ScfSolver::diis_error(const la::Matrix& fock_matrix,
                                 const la::Matrix& density) const {
  // FPS - SPF, pulled into the orthogonal basis so norms compare
  // across iterations.
  const la::Matrix fps =
      la::multiply(la::multiply(fock_matrix, density), overlap_);
  const la::Matrix spf =
      la::multiply(la::multiply(overlap_, density), fock_matrix);
  const la::Matrix commutator = la::add(fps, spf, 1.0, -1.0);
  return la::multiply(la::multiply(x_.transposed(), commutator), x_);
}

ScfResult ScfSolver::run(const ScfOptions& options) {
  P8_REQUIRE(options.max_iterations >= 1, "need at least one iteration");
  P8_REQUIRE(options.damping >= 0.0 && options.damping < 1.0,
             "damping is a fraction of the old density");
  const std::size_t n = basis_.size();

  ScfResult result;
  common::Timer total_timer;

  std::vector<PackedEri> list;
  if (options.mode == EriMode::kPrecompute) {
    common::Timer t;
    list = precompute_eris(options.screen_tolerance);
    result.timings.precompute_s = t.seconds();
    result.eri_count = list.size();
    result.eri_bytes = list.size() * sizeof(PackedEri);
  } else {
    result.eri_count = count_nonscreened(options.screen_tolerance);
    result.eri_bytes = 0;
  }

  // Core-Hamiltonian initial guess.
  la::Matrix p = density_from_fock(hcore_);
  la::Matrix f(n, n);

  // DIIS history (Fock matrices and their commutator errors).
  std::vector<la::Matrix> diis_f;
  std::vector<la::Matrix> diis_e;

  double fock_time = 0.0;
  double density_time = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    common::Timer t_fock;
    f = options.mode == EriMode::kPrecompute
            ? fock_from_list(p, list)
            : fock(p, options.screen_tolerance);
    fock_time += t_fock.seconds();

    la::Matrix f_used = f;
    if (options.diis) {
      diis_f.push_back(f);
      diis_e.push_back(diis_error(f, p));
      if (static_cast<int>(diis_f.size()) > options.diis_depth) {
        diis_f.erase(diis_f.begin());
        diis_e.erase(diis_e.begin());
      }
      const std::size_t m = diis_f.size();
      if (m >= 2) {
        // Pulay system: minimize |sum c_i e_i| with sum c_i = 1.
        la::Matrix b(m + 1, m + 1);
        std::vector<double> rhs(m + 1, 0.0);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            double dot = 0.0;
            const auto ei = diis_e[i].data();
            const auto ej = diis_e[j].data();
            for (std::size_t k = 0; k < ei.size(); ++k) dot += ei[k] * ej[k];
            b(i, j) = dot;
          }
          b(i, m) = b(m, i) = -1.0;
        }
        rhs[m] = -1.0;
        try {
          const auto c = la::solve_linear(b, rhs);
          la::Matrix extrapolated(n, n);
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t r = 0; r < n; ++r)
              for (std::size_t col = 0; col < n; ++col)
                extrapolated(r, col) += c[i] * diis_f[i](r, col);
          f_used = std::move(extrapolated);
        } catch (const std::invalid_argument&) {
          // Singular B (linearly dependent errors): restart the
          // history from the current Fock matrix.
          diis_f.assign(1, f);
          diis_e.assign(1, diis_error(f, p));
        }
      }
    }

    common::Timer t_density;
    la::Matrix p_new = density_from_fock(f_used, options.density);
    density_time += t_density.seconds();

    // rms change over the undamped update.
    const double rms = p.distance(p_new) / static_cast<double>(n);
    if (!options.diis && options.damping > 0.0)
      p_new = la::add(p_new, p, 1.0 - options.damping, options.damping);
    p = std::move(p_new);
    result.iterations = iter + 1;
    if (rms < options.convergence) {
      result.converged = true;
      break;
    }
  }

  // E_elec = 1/2 sum_ij P_ij (Hcore_ij + F_ij).
  double e_elec = 0.0;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      e_elec += p(r, c) * (hcore_(r, c) + f(r, c));
  result.electronic_energy = 0.5 * e_elec;
  result.energy = result.electronic_energy + molecule_.nuclear_repulsion();
  result.density = std::move(p);
  result.timings.fock_s = fock_time / result.iterations;
  result.timings.density_s = density_time / result.iterations;
  result.timings.total_s = total_timer.seconds();
  return result;
}

}  // namespace p8::hf
