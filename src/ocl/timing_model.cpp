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

std::vector<double> TimingModel::computeUnitCycles(
    const clc::LaunchStats& stats) const {
  // Dispatch work-groups as a GPU's block scheduler does: in group-index
  // order, each to the compute unit that frees up first, i.e. the one
  // with the fewest accumulated cycles (lowest index on ties). With at
  // most one group per CU this is group g on CU g. Per-CU cycle sums
  // accumulate in double: truncating sumCycles/pes to an integer per
  // work-group systematically under-billed kernels with many groups
  // smaller than one CU's PE width (every group lost up to 1 cycle, and
  // a group with sumCycles < pes and maxCycles == 1 lost its fraction
  // entirely whenever the division rounded to the max anyway).
  std::vector<double> cuCycles(
      std::max<std::size_t>(1, spec_.computeUnits), 0.0);
  const double pes = double(std::max<std::uint32_t>(1, spec_.pesPerUnit));
  for (const clc::GroupCost& group : stats.groups) {
    const double throughputCycles = double(group.sumCycles) / pes;
    *std::min_element(cuCycles.begin(), cuCycles.end()) +=
        std::max(throughputCycles, double(group.maxCycles));
  }
  return cuCycles;
}

std::uint64_t TimingModel::kernelDurationNs(
    const clc::LaunchStats& stats) const {
  const std::vector<double> cuCycles = computeUnitCycles(stats);
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
