// Virtual-time cost model: converts executed work (VM launch statistics,
// transfer sizes) into nanoseconds on a device's timeline.
//
// Calibration
// -----------
// The machine running this reproduction has no GPU, so runtimes reported
// by benchmarks are *virtual* seconds computed from real executed work:
//
//   kernel   = launch_overhead
//            + max(compute, memory)                       (roofline)
//   compute  = max over CUs of (sum of its groups' cycles)
//              / (clock * backend_efficiency)
//              (groups go, in index order, to the least-loaded CU)
//   group    = max(sum_item_cycles / PEs_per_CU, slowest_item)
//   memory   = global bytes moved / device bandwidth
//   transfer = pcie_latency + bytes / pcie_bandwidth
//   peercopy = max(src wire, dst wire) + max(src, dst latency)
//              (the staged legs pipeline; cross-node copies add the
//              interconnect's wire time to the max and its latency on
//              top — see peerCopyDurationNs)
//   energy   = idle_power x wall + (busy-idle) x compute busy
//              + nj_per_byte x bytes moved        (1 W = 1 nJ/ns;
//              computed by trace/analysis.cpp from the device totals)
//
// Durations are placed on per-engine device timelines (device.h): kernels
// occupy the compute engine, uploads/downloads the H2D/D2H DMA engines,
// so transfers can overlap compute when the command queue allows it.
//
// Cycle counts come from the VM's per-instruction accounting. The one
// deliberately calibrated constant pair is the backend efficiency /
// launch overhead difference between the "CUDA" and "OpenCL" backends:
// the paper (Sec. IV-A, citing Kong et al. [8]) attributes CUDA's edge to
// toolchain maturity, which a functional simulator cannot reproduce from
// first principles. We model it as CUDA retiring VM cycles ~30% faster
// with a lower launch overhead; DESIGN.md documents this substitution.
#pragma once

#include <cstdint>
#include <vector>

#include "clc/vm.h"
#include "ocl/device.h"

namespace ocl {

enum class Backend { OpenCL, Cuda };

const char* backendName(Backend backend) noexcept;

struct BackendProfile {
  double efficiency;          // fraction of peak the backend retires
  std::uint64_t launchOverheadNs;
  std::uint64_t enqueueOverheadNs; // host-side cost of an enqueue call

  static BackendProfile forBackend(Backend backend) noexcept;
};

class TimingModel {
public:
  TimingModel(const DeviceSpec& spec, Backend backend) noexcept
      : spec_(spec), profile_(BackendProfile::forBackend(backend)) {}

  /// Cycles each compute unit spends on the launch's work-groups, which
  /// are dispatched in index order to the least-loaded CU (lowest index
  /// on ties). kernelDurationNs bills the largest entry.
  std::vector<double> computeUnitCycles(const clc::LaunchStats& stats) const;

  /// Duration of a kernel launch with the given execution profile.
  std::uint64_t kernelDurationNs(const clc::LaunchStats& stats) const;

  /// What kernelDurationNs will bill a launch of `items` work-items in
  /// groups of `groupSize`, each item retiring `itemCycles` VM cycles and
  /// moving `itemBytes` bytes of global memory, before it runs: the
  /// groups dealt out in rounds over the compute units.
  std::uint64_t predictKernelNs(std::uint64_t items, std::uint64_t groupSize,
                                double itemCycles, double itemBytes) const;

  /// Duration of a host<->device transfer of `bytes` over one PCIe DMA
  /// engine (latency + bytes/bandwidth).
  std::uint64_t transferDurationNs(std::uint64_t bytes) const;

  /// The two components of transferDurationNs, separately: cross-device
  /// copies compose legs from these so the staged transfer pipelines —
  /// max of the legs' wire times plus a single latency — instead of
  /// paying the full latency+wire sum once per leg.
  double transferLatencyNs() const noexcept;
  double transferWireNs(std::uint64_t bytes) const noexcept;

  /// Duration of an on-device buffer-to-buffer copy of `bytes`: runs at
  /// global-memory bandwidth and pays for a read plus a write.
  std::uint64_t deviceCopyDurationNs(std::uint64_t bytes) const;

  /// Host-side cost of submitting one command.
  std::uint64_t enqueueOverheadNs() const noexcept {
    return profile_.enqueueOverheadNs;
  }

private:
  /// Launch overhead plus the roofline of the critical CU's cycles and
  /// the bytes the launch moves.
  std::uint64_t rooflineNs(double criticalCycles, double bytes) const;

  DeviceSpec spec_;
  BackendProfile profile_;
};

/// Duration of a cross-device copy of `bytes` from `src` to `dst`. The
/// staged legs pipeline: after the first piece lands in host memory the
/// upload streams concurrently with the rest of the download, so the
/// copy takes the slower leg's wire time plus one latency — not the sum
/// of two full latency+wire transfers. When the devices live on
/// different nodes the pieces also cross the interconnect, adding its
/// (usually dominant) wire time to the pipeline bottleneck and its
/// latency on top.
std::uint64_t peerCopyDurationNs(const DeviceState& src,
                                 const DeviceState& dst, Backend backend,
                                 std::uint64_t bytes);

} // namespace ocl
