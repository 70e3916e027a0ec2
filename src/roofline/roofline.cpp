#include "roofline/roofline.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace p8::roofline {

RooflineModel::RooflineModel(double peak_gflops, double mem_gbs,
                             double write_only_gbs)
    : peak_gflops_(peak_gflops),
      mem_gbs_(mem_gbs),
      write_only_gbs_(write_only_gbs) {
  P8_REQUIRE(peak_gflops > 0 && mem_gbs > 0 && write_only_gbs > 0,
             "roofs must be positive");
  P8_REQUIRE(write_only_gbs <= mem_gbs,
             "write-only roof cannot exceed the optimal-mix roof");
}

RooflineModel RooflineModel::from_spec(const arch::SystemSpec& spec) {
  return RooflineModel(spec.peak_dp_gflops(), spec.peak_mem_gbs(),
                       spec.peak_write_gbs());
}

double RooflineModel::attainable_gflops(double oi, bool write_only) const {
  P8_REQUIRE(oi > 0, "operational intensity must be positive");
  const double roof = write_only ? write_only_gbs_ : mem_gbs_;
  return std::min(peak_gflops_, oi * roof);
}

std::vector<RooflinePoint> RooflineModel::sweep(double oi_min, double oi_max,
                                                int points,
                                                bool write_only) const {
  P8_REQUIRE(oi_min > 0 && oi_max > oi_min, "bad intensity range");
  P8_REQUIRE(points >= 2, "need at least two points");
  std::vector<RooflinePoint> out;
  out.reserve(static_cast<std::size_t>(points));
  const double step =
      std::pow(oi_max / oi_min, 1.0 / static_cast<double>(points - 1));
  double oi = oi_min;
  for (int i = 0; i < points; ++i, oi *= step)
    out.push_back({oi, attainable_gflops(oi, write_only)});
  return out;
}

std::vector<KernelSpec> figure9_kernels() {
  return {
      {"SpMV", 0.25, "CSR y=Ax: 2 flops per 8-byte value + index traffic"},
      {"Stencil", 0.5, "7-point 3D stencil, one sweep"},
      {"LBMHD", 1.07, "lattice-Boltzmann MHD collision/stream"},
      {"3D FFT", 1.64, "out-of-cache 3D FFT, three passes"},
  };
}

}  // namespace p8::roofline
