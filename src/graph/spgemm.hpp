// General sparse matrix-matrix multiplication (SpGEMM).
//
// Paper §V-A frames all-pairs Jaccard as "squaring the adjacency
// matrix"; this is the general C = A * B kernel behind that claim —
// row-wise Gustavson with a dense sparse-accumulator per worker,
// parallel over row chunks.
#pragma once

#include "common/threading.hpp"
#include "graph/csr.hpp"

namespace p8::graph {

struct SpgemmOptions {
  /// Rows per dynamically scheduled task.
  std::uint32_t row_chunk = 128;
};

/// C = A * B.  Requires a.cols() == b.rows().
CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b,
                 common::ThreadPool& pool, const SpgemmOptions& options = {});

/// Number of multiply-adds a * b would perform (the standard SpGEMM
/// work estimate: sum over nonzeros (i,k) of A of nnz(B row k)).
std::uint64_t spgemm_flops(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace p8::graph
