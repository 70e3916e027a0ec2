#include "graph/spgemm.hpp"

#include <atomic>
#include <cmath>

#include "common/error.hpp"

namespace p8::graph {

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b,
                 common::ThreadPool& pool, const SpgemmOptions& options) {
  P8_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  P8_REQUIRE(options.row_chunk >= 1, "row chunk must be positive");
  const std::uint32_t rows = a.rows();
  const std::uint32_t cols = b.cols();

  struct Workspace {
    std::vector<double> accumulator;     // SPA values
    std::vector<std::uint32_t> touched;  // dirty SPA slots
    std::vector<Triplet> out;
  };
  std::vector<Workspace> spaces(pool.size());
  for (auto& w : spaces) w.accumulator.assign(cols, 0.0);

  std::atomic<std::uint32_t> next{0};
  pool.run_on_all([&](std::size_t worker) {
    Workspace& ws = spaces[worker];
    for (;;) {
      // p8lint: allow(conc-weak-atomic) ticket counter: each row chunk claimed once; merge after join
      const std::uint32_t lo = next.fetch_add(options.row_chunk, std::memory_order_relaxed);
      if (lo >= rows) break;
      const std::uint32_t hi = std::min(lo + options.row_chunk, rows);
      for (std::uint32_t i = lo; i < hi; ++i) {
        const auto a_cols = a.row_cols(i);
        const auto a_vals = a.row_values(i);
        for (std::size_t ka = 0; ka < a_cols.size(); ++ka) {
          const std::uint32_t k = a_cols[ka];
          const double aik = a_vals[ka];
          const auto b_cols = b.row_cols(k);
          const auto b_vals = b.row_values(k);
          for (std::size_t kb = 0; kb < b_cols.size(); ++kb) {
            const std::uint32_t j = b_cols[kb];
            if (ws.accumulator[j] == 0.0) ws.touched.push_back(j);
            ws.accumulator[j] += aik * b_vals[kb];
          }
        }
        for (const std::uint32_t j : ws.touched) {
          const double v = ws.accumulator[j];
          ws.accumulator[j] = 0.0;
          // Exact zeros from cancellation are dropped (as are NaNs); an
          // SPA cannot tell zeros from never-touched slots anyway.
          if (std::abs(v) > 0.0)
            ws.out.push_back({i, j, v});
        }
        ws.touched.clear();
      }
    }
  });

  std::size_t total = 0;
  for (const auto& w : spaces) total += w.out.size();
  std::vector<Triplet> merged;
  merged.reserve(total);
  for (auto& w : spaces) {
    merged.insert(merged.end(), w.out.begin(), w.out.end());
    w.out.clear();
    w.out.shrink_to_fit();
  }
  return CsrMatrix::from_triplets(rows, cols, std::move(merged));
}

std::uint64_t spgemm_flops(const CsrMatrix& a, const CsrMatrix& b) {
  P8_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  std::uint64_t flops = 0;
  for (std::uint32_t i = 0; i < a.rows(); ++i)
    for (const std::uint32_t k : a.row_cols(i))
      flops += b.row_nnz(k);
  return flops;
}

}  // namespace p8::graph
