#include "spmv/csr_spmv.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/partition.hpp"

namespace p8::spmv {

void spmv_serial(const graph::CsrMatrix& a, std::span<const double> x,
                 std::span<double> y) {
  P8_REQUIRE(x.size() >= a.cols(), "x too short");
  P8_REQUIRE(y.size() >= a.rows(), "y too short");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (std::uint32_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      acc += values[k] * x[col_idx[k]];
    y[r] = acc;
  }
}

CsrSpmvPlan::CsrSpmvPlan(const graph::CsrMatrix& a, std::size_t threads) {
  P8_REQUIRE(threads >= 1, "need at least one thread");
  bounds_ = common::partition_rows_by_nnz(a.row_ptr(), threads);
}

double CsrSpmvPlan::imbalance(const graph::CsrMatrix& a) const {
  const auto row_ptr = a.row_ptr();
  std::uint64_t heaviest = 0;
  for (std::size_t t = 0; t + 1 < bounds_.size(); ++t)
    heaviest = std::max(heaviest,
                        row_ptr[bounds_[t + 1]] - row_ptr[bounds_[t]]);
  const double ideal =
      static_cast<double>(a.nnz()) / static_cast<double>(threads());
  return ideal > 0 ? static_cast<double>(heaviest) / ideal : 1.0;
}

void spmv(const graph::CsrMatrix& a, std::span<const double> x,
          std::span<double> y, common::ThreadPool& pool,
          const CsrSpmvPlan& plan) {
  P8_REQUIRE(plan.threads() == pool.size(), "plan built for another pool");
  P8_REQUIRE(x.size() >= a.cols(), "x too short");
  P8_REQUIRE(y.size() >= a.rows(), "y too short");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  pool.run_on_all([&](std::size_t worker) {
    const auto [lo, hi] = plan.row_range(worker);
    for (std::size_t r = lo; r < hi; ++r) {
      double acc = 0.0;
      for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
        acc += values[k] * x[col_idx[k]];
      y[r] = acc;
    }
  });
}

}  // namespace p8::spmv
