#include "graph/csr.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace p8::graph {

CsrMatrix CsrMatrix::from_triplets(std::uint32_t rows, std::uint32_t cols,
                                   std::vector<Triplet> triplets) {
  for (const auto& t : triplets)
    P8_REQUIRE(t.row < rows && t.col < cols, "triplet out of range");

  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  for (std::size_t i = 0; i < triplets.size();) {
    const std::uint32_t r = triplets[i].row;
    const std::uint32_t c = triplets[i].col;
    double v = 0.0;
    while (i < triplets.size() && triplets[i].row == r &&
           triplets[i].col == c) {
      v += triplets[i].value;
      ++i;
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(v);
    m.row_ptr_[r + 1] = m.col_idx_.size();
  }
  // Rows with no entries inherit the previous offset.
  for (std::size_t r = 1; r < m.row_ptr_.size(); ++r)
    m.row_ptr_[r] = std::max(m.row_ptr_[r], m.row_ptr_[r - 1]);
  return m;
}

std::uint64_t CsrMatrix::memory_bytes() const {
  return row_ptr_.size() * sizeof(std::uint64_t) +
         col_idx_.size() * sizeof(std::uint32_t) +
         values_.size() * sizeof(double);
}

bool CsrMatrix::well_formed() const {
  if (row_ptr_.size() != static_cast<std::size_t>(rows_) + 1) return false;
  if (row_ptr_.front() != 0 || row_ptr_.back() != nnz()) return false;
  for (std::uint32_t r = 0; r < rows_; ++r) {
    if (row_ptr_[r] > row_ptr_[r + 1]) return false;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k] >= cols_) return false;
      if (k > row_ptr_[r] && col_idx_[k] <= col_idx_[k - 1]) return false;
    }
  }
  return true;
}

Graph graph_from_edges(
    std::uint32_t vertices,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> edges) {
  std::vector<Triplet> triplets;
  triplets.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    P8_REQUIRE(u < vertices && v < vertices, "edge endpoint out of range");
    if (u == v) continue;
    triplets.push_back({u, v, 1.0});
    triplets.push_back({v, u, 1.0});
  }
  Graph g;
  g.adjacency = CsrMatrix::from_triplets(vertices, vertices, std::move(triplets));
  // from_triplets sums duplicates; clamp multi-edges back to weight 1.
  for (double& v : g.adjacency.values_mutable()) v = 1.0;
  return g;
}

}  // namespace p8::graph
