// Roofline model of the machine (paper §IV, Figure 9).
//
// Attainable performance at operational intensity I (FLOP per byte of
// DRAM traffic) is min(peak_flops, I * memory_bandwidth).  The POWER8
// twist the paper highlights: the memory roof depends on the traffic
// mix.  At the optimal 2:1 read:write ratio the E870 sustains
// 1,843 GB/s, but a write-only kernel sees just 614 GB/s — less than
// half — so the model carries both roofs.
#pragma once

#include <string>
#include <vector>

#include "arch/spec.hpp"

namespace p8::roofline {

struct RooflinePoint {
  double operational_intensity = 0.0;  ///< FLOP / DRAM byte
  double gflops = 0.0;
};

class RooflineModel {
 public:
  /// `peak_gflops`: compute roof.  `mem_gbs`: bandwidth roof at the
  /// optimal mix.  `write_only_gbs`: bandwidth roof for write-dominated
  /// kernels.
  RooflineModel(double peak_gflops, double mem_gbs, double write_only_gbs);

  /// Builds the model from a system spec using its theoretical peaks.
  static RooflineModel from_spec(const arch::SystemSpec& spec);

  double peak_gflops() const { return peak_gflops_; }
  double mem_gbs() const { return mem_gbs_; }
  double write_only_gbs() const { return write_only_gbs_; }

  /// Performance bound at intensity `oi`; `write_only` selects the
  /// dashed (write-dominated) roof.
  double attainable_gflops(double oi, bool write_only = false) const;

  /// The machine-balance point: the intensity at which a kernel stops
  /// being memory bound (paper: 1.2 for the E870).
  double ridge_oi() const { return peak_gflops_ / mem_gbs_; }
  double ridge_oi_write_only() const { return peak_gflops_ / write_only_gbs_; }

  /// Log-spaced sweep of the roof between two intensities.
  std::vector<RooflinePoint> sweep(double oi_min, double oi_max, int points,
                                   bool write_only = false) const;

 private:
  double peak_gflops_;
  double mem_gbs_;
  double write_only_gbs_;
};

/// One of the scientific kernels the paper places on the roofline.
struct KernelSpec {
  std::string name;
  double operational_intensity = 0.0;
  std::string note;
};

/// The four kernels of Figure 9 with their customary intensities.
std::vector<KernelSpec> figure9_kernels();

}  // namespace p8::roofline
