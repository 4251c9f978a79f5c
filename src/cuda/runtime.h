// CUDA-runtime-style host API over the simulated devices.
//
// Stands in for the paper's CUDA baselines. The shape follows the CUDA
// runtime API (cudaSetDevice / cudaMalloc / cudaMemcpy / <<<grid,block>>>
// launches / cudaDeviceSynchronize); kernels are written in the CUDA
// dialect of clc (__global__, threadIdx.x, __syncthreads, atomicAdd) and
// "compiled ahead of time" at Module::compile, mirroring nvcc: by launch
// time there is no source handling left. Commands run on the device's
// virtual timeline with the CUDA backend profile (higher efficiency,
// lower launch overhead — the calibrated gap the paper attributes to
// toolchain maturity; see ocl/timing_model.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ocl/ocl.h"

namespace cuda {

/// Number of simulated CUDA-capable devices (GPUs only).
int getDeviceCount();

/// Re-discovers devices after ocl::configureSystem changed the machine.
void reset();

/// Selects the calling thread's current device (cudaSetDevice).
void setDevice(int index);
int getDevice();

/// RAII device allocation (cudaMalloc / cudaFree).
class DeviceMemory {
public:
  DeviceMemory() = default;
  /// Allocates on the *current* device.
  explicit DeviceMemory(std::size_t bytes);

  bool valid() const noexcept { return buffer_.valid(); }
  std::size_t size() const { return buffer_.size(); }
  const ocl::Buffer& buffer() const noexcept { return buffer_; }

private:
  ocl::Buffer buffer_;
};

/// cudaMemcpy analogues. Operate on the device owning the memory. The
/// offset variants stand in for CUDA's device-pointer arithmetic
/// (cudaMemcpy(ptr + off, ...)).
void memcpyHostToDevice(DeviceMemory& dst, const void* src,
                        std::size_t bytes);
void memcpyHostToDevice(DeviceMemory& dst, std::size_t dstOffset,
                        const void* src, std::size_t bytes);
/// cudaMemcpyAsync analogue: returns immediately; the copy completes on
/// the device timeline (synchronize with deviceSynchronize()). Stands in
/// for the overlap the paper's one-host-thread-per-GPU CUDA code gets.
void memcpyHostToDeviceAsync(DeviceMemory& dst, const void* src,
                             std::size_t bytes);
void memcpyDeviceToHost(void* dst, const DeviceMemory& src,
                        std::size_t bytes);
void memcpyDeviceToHost(void* dst, const DeviceMemory& src,
                        std::size_t srcOffset, std::size_t bytes);
void memcpyDeviceToDevice(DeviceMemory& dst, const DeviceMemory& src,
                          std::size_t bytes);
void memcpyDeviceToDevice(DeviceMemory& dst, std::size_t dstOffset,
                          const DeviceMemory& src, std::size_t srcOffset,
                          std::size_t bytes);

/// Blocks the virtual host until the current device drains.
void deviceSynchronize();

/// Virtual-clock stamp (nanoseconds); use around a region to measure the
/// simulated runtime the way cudaEvent timing would.
std::uint64_t clockNs();

struct Dim3 {
  std::uint32_t x = 1, y = 1, z = 1;
  Dim3() = default;
  Dim3(std::uint32_t x_, std::uint32_t y_ = 1, std::uint32_t z_ = 1)
      : x(x_), y(y_), z(z_) {}
};

class KernelFunction;

/// A compiled module (stands in for the fatbin nvcc embeds in a binary).
class Module {
public:
  /// Compiles CUDA-dialect source. Call once at startup; launches never
  /// touch source again (that is the nvcc model, unlike OpenCL).
  static Module compile(const std::string& source);

  KernelFunction function(const std::string& name) const;

private:
  ocl::Program program_;
};

class KernelFunction {
public:
  KernelFunction() = default;
  explicit KernelFunction(ocl::Kernel kernel) : kernel_(std::move(kernel)) {}

  ocl::Kernel& kernel() noexcept { return kernel_; }

private:
  ocl::Kernel kernel_;
};

namespace detail {
void setLaunchArg(ocl::Kernel& kernel, std::size_t index,
                  const DeviceMemory& mem);
template <typename T>
void setLaunchArg(ocl::Kernel& kernel, std::size_t index, const T& value) {
  if constexpr (ocl::HostScalar<T>) {
    kernel.setArg(index, value);
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "kernel arguments must be trivially copyable");
    kernel.setArgBytes(index, &value, sizeof(T));
  }
}

ocl::Event launchImpl(ocl::Kernel& kernel, Dim3 grid, Dim3 block);
} // namespace detail

/// kernel<<<grid, block>>>(args...) analogue. Blocking variant below.
template <typename... Args>
ocl::Event launch(KernelFunction& fn, Dim3 grid, Dim3 block,
                  const Args&... args) {
  std::size_t index = 0;
  (detail::setLaunchArg(fn.kernel(), index++, args), ...);
  return detail::launchImpl(fn.kernel(), grid, block);
}

} // namespace cuda
