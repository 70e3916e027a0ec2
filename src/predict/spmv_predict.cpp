#include "predict/spmv_predict.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/prefetch/engine.hpp"

namespace p8::predict {

namespace {

/// Prefetch coverage of a sequential stream of `lines` cache lines:
/// the hardware ramp (one extra line of run-ahead per access, up to
/// `depth`) leaves the first accesses uncovered — the Fig. 8
/// mechanism.  Efficiency = covered fraction of the stream, floored
/// by the no-prefetch residual 1/(depth+1).
double stream_efficiency(double lines, int depth) {
  lines = std::max(lines, 1.0);
  const double t_steady = 1.0 / (depth + 1);  // per line, units of latency
  // Two confirmation misses at full latency, then the ramp covers one
  // more line of run-ahead per access, then steady state.
  double time = 0.0;
  double remaining = lines;
  const double misses = std::min(remaining, 2.0);
  time += misses;
  remaining -= misses;
  for (int k = 1; k <= depth && remaining > 0.0; ++k) {
    const double take = std::min(remaining, 1.0);
    time += take / (k + 1);
    remaining -= take;
  }
  time += remaining * t_steady;
  return lines * t_steady / time;
}

}  // namespace

SpmvPrediction predict_csr_spmv(const graph::CsrMatrix& a,
                                const sim::Machine& machine,
                                const SpmvPredictOptions& options) {
  P8_REQUIRE(a.nnz() > 0, "empty matrix");
  const std::uint64_t line =
      machine.spec().processor.cache_line_bytes;

  // Replay the x-gather stream of a row-contiguous sample through one
  // core's hierarchy.  x lives at address 0..8*cols; the matrix stream
  // itself is one-pass and bypasses the replay (its traffic is
  // accounted analytically below).
  sim::ChipMemoryModel cache(machine.hierarchy());

  std::uint64_t sampled = 0;
  std::uint64_t hits = 0;
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  for (std::uint32_t r = 0; r < a.rows() && sampled < options.sample_nnz;
       ++r) {
    for (std::uint64_t k = row_ptr[r];
         k < row_ptr[r + 1] && sampled < options.sample_nnz; ++k) {
      const std::uint64_t addr = static_cast<std::uint64_t>(col_idx[k]) * 8;
      const sim::ServiceLevel level = cache.access(addr);
      ++sampled;
      if (level != sim::ServiceLevel::kDram &&
          level != sim::ServiceLevel::kL4)
        ++hits;
    }
  }

  SpmvPrediction p;
  p.x_hit_fraction =
      static_cast<double>(hits) / static_cast<double>(sampled);

  // Per-nonzero link traffic:
  //   matrix stream (read)           : matrix_bytes_per_nnz
  //   x gather misses (read)         : (1 - hit) * line
  //   y write-allocate + write-back  : 16 B + 8 B per row, amortized
  const double rows_per_nnz =
      static_cast<double>(a.rows()) / static_cast<double>(a.nnz());
  const double read_bytes = options.matrix_bytes_per_nnz +
                            (1.0 - p.x_hit_fraction) *
                                static_cast<double>(line) +
                            8.0 * rows_per_nnz;  // y allocate
  const double write_bytes = 8.0 * rows_per_nnz;
  p.bytes_per_nnz = read_bytes + write_bytes;
  p.read_to_write = write_bytes > 0 ? read_bytes / write_bytes : 0.0;

  const double bw_gbs = machine.memory().system_stream_gbs(
      {read_bytes, std::max(write_bytes, 1e-9)});
  // 2 flops per nonzero; time per nonzero = bytes / BW.
  p.gflops = 2.0 / p.bytes_per_nnz * bw_gbs;
  return p;
}

namespace {

TiledPrediction tiled_from_shape(double rows, double cols, double nnz,
                                 const sim::Machine& machine,
                                 const TiledPredictOptions& options) {
  P8_REQUIRE(nnz > 0, "empty matrix");
  TiledPrediction p;
  const double n_cb = std::ceil(cols / options.col_block);
  const double n_rb = std::ceil(rows / options.row_block);
  p.mean_tile_nnz = nnz / (n_cb * n_rb);

  const double line =
      static_cast<double>(machine.spec().processor.cache_line_bytes);
  sim::PrefetchConfig pf;  // hardware-default depth
  const int depth = pf.depth_lines();

  // Phase 1 (column-block-major scale): one long sequential pass.
  //   read value+index 12 B, write scaled 8 B (+8 B allocate),
  //   x slices stream once in total (they stay cache-resident within
  //   a block — the algorithm's whole point).
  const double p1_read = 12.0 + 8.0 + 8.0 * cols / nnz;
  const double p1_write = 8.0;

  // Phase 2 (row-block-major reduce): per-tile streams of the scaled
  // copy + row indices; short tiles lose prefetch coverage.
  const double tile_lines = p.mean_tile_nnz * 12.0 / line;
  p.stream_efficiency = stream_efficiency(tile_lines, depth);
  const double p2_read = 12.0 / p.stream_efficiency +
                         16.0 * rows / nnz;  // y slice read+allocate
  const double p2_write = 8.0 * rows / nnz;  // y write-back

  const double read_bytes = p1_read + p2_read;
  const double write_bytes = p1_write + p2_write;
  p.bytes_per_nnz = read_bytes + write_bytes;
  p.read_to_write = read_bytes / write_bytes;

  const double bw_gbs =
      machine.memory().system_stream_gbs({read_bytes, write_bytes});
  p.gflops = 2.0 / p.bytes_per_nnz * bw_gbs;
  return p;
}

}  // namespace

TiledPrediction predict_tiled_spmv(const graph::CsrMatrix& a,
                                   const sim::Machine& machine,
                                   const TiledPredictOptions& options) {
  return tiled_from_shape(static_cast<double>(a.rows()),
                          static_cast<double>(a.cols()),
                          static_cast<double>(a.nnz()), machine, options);
}

TiledPrediction predict_tiled_spmv_shape(std::uint64_t n, std::uint64_t nnz,
                                         const sim::Machine& machine,
                                         const TiledPredictOptions& options) {
  return tiled_from_shape(static_cast<double>(n), static_cast<double>(n),
                          static_cast<double>(nnz), machine, options);
}

SpmvPrediction predict_csr_spmv_shape(std::uint64_t n, std::uint64_t nnz,
                                      const sim::Machine& machine) {
  P8_REQUIRE(nnz > 0, "empty matrix");
  SpmvPrediction p;
  // Effectively uniform gathers over an 8 B-element vector: the hit
  // fraction is the cache-resident share of x.  Usable capacity: the
  // chip L3 plus the memory-side L4, discounted for competition with
  // the streaming matrix.
  const sim::HierarchyConfig& hier = machine.hierarchy();
  const double cache_bytes =
      0.8 * (static_cast<double>(hier.chip_l3_bytes()) +
             static_cast<double>(hier.l4_bytes));
  const double x_bytes = 8.0 * static_cast<double>(n);
  p.x_hit_fraction = std::min(1.0, cache_bytes / x_bytes);

  const double line = static_cast<double>(hier.line_bytes);
  const double rows_per_nnz =
      static_cast<double>(n) / static_cast<double>(nnz);
  const double read_bytes = 12.0 + (1.0 - p.x_hit_fraction) * line +
                            8.0 * rows_per_nnz;
  const double write_bytes = 8.0 * rows_per_nnz;
  p.bytes_per_nnz = read_bytes + write_bytes;
  p.read_to_write = read_bytes / write_bytes;
  const double bw_gbs = machine.memory().system_stream_gbs(
      {read_bytes, std::max(write_bytes, 1e-9)});
  p.gflops = 2.0 / p.bytes_per_nnz * bw_gbs;
  return p;
}

}  // namespace p8::predict
