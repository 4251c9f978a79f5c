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
  return rooflineNs(*std::max_element(cuCycles.begin(), cuCycles.end()),
                    double(stats.globalBytesRead + stats.globalBytesWritten));
}

std::uint64_t TimingModel::predictKernelNs(std::uint64_t items,
                                           std::uint64_t groupSize,
                                           double itemCycles,
                                           double itemBytes) const {
  const std::uint64_t wg = std::max<std::uint64_t>(1, groupSize);
  const std::uint64_t cus = std::max<std::uint32_t>(1, spec_.computeUnits);
  const std::uint64_t rounds = ((items + wg - 1) / wg + cus - 1) / cus;
  const double pes = double(std::max<std::uint32_t>(1, spec_.pesPerUnit));
  const double group = std::max(double(wg) * itemCycles / pes, itemCycles);
  return rooflineNs(double(rounds) * group, double(items) * itemBytes);
}

std::uint64_t TimingModel::rooflineNs(double criticalCycles,
                                      double bytes) const {
  const double hz = spec_.clockGHz * 1e9 * profile_.efficiency;
  const double computeNs = std::ceil(criticalCycles) / hz * 1e9;
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

std::uint64_t peerCopyDurationNs(const DeviceState& src,
                                 const DeviceState& dst, Backend backend,
                                 std::uint64_t bytes) {
  const TimingModel srcModel(src.spec(), backend);
  const TimingModel dstModel(dst.spec(), backend);
  double wireNs = std::max(srcModel.transferWireNs(bytes),
                           dstModel.transferWireNs(bytes));
  double latencyNs = std::max(srcModel.transferLatencyNs(),
                              dstModel.transferLatencyNs());
  if (src.node() != dst.node() && src.link() != nullptr) {
    const InterconnectSpec& ic = src.link()->interconnect();
    if (ic.bandwidthGBs > 0.0) {
      wireNs = std::max(wireNs,
                        double(bytes) / (ic.bandwidthGBs * 1e9) * 1e9);
    }
    latencyNs += ic.latencyUs * 1e3;
  }
  return std::uint64_t(wireNs + latencyNs);
}

} // namespace ocl
