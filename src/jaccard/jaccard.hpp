// All-pairs Jaccard similarity (paper §V-A).
//
// J(i,j) = |N(i) ∩ N(j)| / |N(i) ∪ N(j)|.  The common-neighbor counts
// for *all* pairs are the entries of A², so the kernel is a masked
// sparse matrix-matrix multiply: a locality-aware row-blocked
// Gustavson SpGEMM with a dense sparse-accumulator (SPA) per worker.
// Only pairs with at least one common neighbor produce output — yet
// the output is still far larger than the input graph, which is the
// paper's point: the E870's memory capacity lets a single node hold
// result sets that force others into distributed implementations.
#pragma once

#include <cstdint>

#include "common/threading.hpp"
#include "graph/csr.hpp"

namespace p8::jaccard {

/// Exact similarity of one vertex pair by sorted-list intersection —
/// the reference the SpGEMM path is tested against.
double pair_similarity(const graph::Graph& g, std::uint32_t i,
                       std::uint32_t j);

struct Options {
  /// Rows per dynamically scheduled task.
  std::uint32_t row_chunk = 256;
  /// Drop pairs with similarity below this threshold (0 keeps all).
  double min_similarity = 0.0;
  /// Dynamic (work-stealing-style) scheduling, the paper's §III-D
  /// "dynamic scheduling of small tasks".  Disable for the ablation:
  /// static contiguous row ranges, which load-imbalance badly on
  /// power-law inputs because SpGEMM work is quadratic in degree.
  bool dynamic_schedule = true;
};

struct Result {
  /// similarities(i, j) = J(i, j) for i < j pairs with a common
  /// neighbor (the matrix is symmetric; only its upper triangle is
  /// stored).
  graph::CsrMatrix similarities;
  /// Bytes of the result matrix — the Figure 10 memory-footprint
  /// series.
  std::uint64_t output_bytes = 0;
  /// Total candidate pairs evaluated (SPA insertions).
  std::uint64_t pairs_evaluated = 0;
  /// The largest schedulable task's work (SPA insertions) relative to
  /// an even per-worker share: <=1 means no single task can delay the
  /// finish beyond a balanced schedule; >1 means one task alone
  /// exceeds a worker's fair share (the static-split pathology on
  /// power-law inputs).  Deterministic — independent of how the OS
  /// actually interleaved the workers.
  double max_task_share = 0.0;
};

/// Computes the full all-pairs similarity of `g`.
Result all_pairs(const graph::Graph& g, common::ThreadPool& pool,
                 const Options& options = {});

}  // namespace p8::jaccard
