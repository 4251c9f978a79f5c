#include "ocl/timing_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace ocl {

const char* backendName(Backend backend) noexcept {
  switch (backend) {
    case Backend::OpenCL: return "OpenCL";
    case Backend::Cuda: return "CUDA";
  }
  return "?";
}

BackendProfile BackendProfile::forBackend(Backend backend) noexcept {
  switch (backend) {
    case Backend::Cuda:
      // Mature toolchain: better scheduling/codegen, cheap launches.
      return BackendProfile{1.0, 5'000, 1'000};
    case Backend::OpenCL:
      // The gap the paper observes and attributes to compiler maturity.
      return BackendProfile{1.0 / 1.30, 12'000, 2'000};
  }
  return BackendProfile{1.0, 5'000, 1'000};
}

std::uint64_t TimingModel::kernelDurationNs(
    const clc::LaunchStats& stats) const {
  // Schedule work-groups round-robin onto compute units. Per-CU cycle
  // sums accumulate in double: truncating sumCycles/pes to an integer
  // per work-group systematically under-billed kernels with many groups
  // smaller than one CU's PE width (every group lost up to 1 cycle, and
  // a group with sumCycles < pes and maxCycles == 1 lost its fraction
  // entirely whenever the division rounded to the max anyway).
  const std::size_t cus = std::max<std::size_t>(1, spec_.computeUnits);
  std::vector<double> cuCycles(cus, 0.0);
  const double pes = double(std::max<std::uint32_t>(1, spec_.pesPerUnit));
  for (std::size_t g = 0; g < stats.groups.size(); ++g) {
    const clc::GroupCost& group = stats.groups[g];
    const double throughputCycles = double(group.sumCycles) / pes;
    cuCycles[g % cus] +=
        std::max(throughputCycles, double(group.maxCycles));
  }
  const double critical =
      *std::max_element(cuCycles.begin(), cuCycles.end());

  const double hz = spec_.clockGHz * 1e9 * profile_.efficiency;
  const double computeNs = std::ceil(critical) / hz * 1e9;

  const double bytes =
      double(stats.globalBytesRead + stats.globalBytesWritten);
  const double memNs = bytes / (spec_.memBandwidthGBs * 1e9) * 1e9;

  return profile_.launchOverheadNs +
         std::uint64_t(std::max(computeNs, memNs));
}

std::uint64_t TimingModel::transferDurationNs(std::uint64_t bytes) const {
  return std::uint64_t(transferLatencyNs() + transferWireNs(bytes));
}

double TimingModel::transferLatencyNs() const noexcept {
  return spec_.pcieLatencyUs * 1e3;
}

double TimingModel::transferWireNs(std::uint64_t bytes) const noexcept {
  return double(bytes) / (spec_.pcieBandwidthGBs * 1e9) * 1e9;
}

std::uint64_t TimingModel::deviceCopyDurationNs(std::uint64_t bytes) const {
  const double bw = spec_.memBandwidthGBs * 1e9;
  return std::uint64_t(double(2 * bytes) / bw * 1e9);
}

} // namespace ocl
