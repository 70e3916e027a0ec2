// CSR sparse matrix-vector multiply (paper §V-B1).
//
// "Given the regular structure, and the memory-bound nature of the
// problem, there is little point in using complex, vectorized
// implementations."  The kernel is the plain CSR dot-product row loop;
// the engineering is in the partitioning: a static 1-D split assigning
// contiguous row ranges to threads, balanced by nonzero count, with
// each thread's partition (rows + output slice) living on its local
// socket and the input vector replicated per socket (modelled here by
// the plan's explicit partition map; the host container has a single
// NUMA domain, so replication is a no-op at runtime but the structure
// is preserved).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/threading.hpp"
#include "graph/csr.hpp"

namespace p8::spmv {

/// Reference single-thread kernel: y = A x.
void spmv_serial(const graph::CsrMatrix& a, std::span<const double> x,
                 std::span<double> y);

/// Precomputed nonzero-balanced row partition for a matrix/pool pair.
class CsrSpmvPlan {
 public:
  CsrSpmvPlan(const graph::CsrMatrix& a, std::size_t threads);

  /// Row range owned by `thread`.
  std::pair<std::size_t, std::size_t> row_range(std::size_t thread) const {
    return {bounds_[thread], bounds_[thread + 1]};
  }
  std::size_t threads() const { return bounds_.size() - 1; }

  /// Largest partition's share of nonzeros relative to perfect balance
  /// (1.0 = perfectly balanced); tests use this to assert the balancer
  /// works on skewed inputs.
  double imbalance(const graph::CsrMatrix& a) const;

 private:
  std::vector<std::size_t> bounds_;
};

/// Parallel y = A x using a prebuilt plan.
void spmv(const graph::CsrMatrix& a, std::span<const double> x,
          std::span<double> y, common::ThreadPool& pool,
          const CsrSpmvPlan& plan);

/// FLOP count of one SpMV (2 per nonzero, the paper's convention).
inline double spmv_flops(const graph::CsrMatrix& a) {
  return 2.0 * static_cast<double>(a.nnz());
}

}  // namespace p8::spmv
