// Compressed sparse row matrices and graph adjacency.
//
// The shared container for the SpMV library (§V-B), the Jaccard kernel
// (§V-A) and the synthetic matrix suite.  Indices are 32-bit (all the
// reproduction's problem sizes fit), row offsets 64-bit.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace p8::graph {

/// A coordinate-form nonzero.
struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets.  Duplicate (row, col) entries are summed;
  /// entries are sorted by (row, col).
  static CsrMatrix from_triplets(std::uint32_t rows, std::uint32_t cols,
                                 std::vector<Triplet> triplets);

  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }
  std::uint64_t nnz() const { return values_.size(); }

  std::span<const std::uint64_t> row_ptr() const { return row_ptr_; }
  std::span<const std::uint32_t> col_idx() const { return col_idx_; }
  std::span<const double> values() const { return values_; }
  std::span<double> values_mutable() { return values_; }

  /// Column indices of row `r` (sorted ascending).
  std::span<const std::uint32_t> row_cols(std::uint32_t r) const {
    return std::span<const std::uint32_t>(col_idx_).subspan(
        row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]);
  }
  std::span<const double> row_values(std::uint32_t r) const {
    return std::span<const double>(values_).subspan(
        row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]);
  }
  std::uint64_t row_nnz(std::uint32_t r) const {
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  /// Bytes of storage held by this matrix.
  std::uint64_t memory_bytes() const;

  /// True if column indices within every row are strictly ascending
  /// and in range (used by tests and debug checks).
  bool well_formed() const;

 private:
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<std::uint64_t> row_ptr_{0};
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

/// An undirected graph stored as a symmetric CSR adjacency (no self
/// loops, unit values).
struct Graph {
  CsrMatrix adjacency;

  std::uint32_t vertices() const { return adjacency.rows(); }
  std::uint64_t edges() const { return adjacency.nnz() / 2; }
  std::span<const std::uint32_t> neighbors(std::uint32_t v) const {
    return adjacency.row_cols(v);
  }
  std::uint64_t degree(std::uint32_t v) const {
    return adjacency.row_nnz(v);
  }
};

/// Builds an undirected graph from an edge list: drops self loops,
/// symmetrizes, removes duplicates.
Graph graph_from_edges(std::uint32_t vertices,
                       std::span<const std::pair<std::uint32_t, std::uint32_t>>
                           edges);

}  // namespace p8::graph
