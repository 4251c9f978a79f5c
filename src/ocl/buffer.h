// Device memory buffers.
//
// Deviation from the OpenCL spec, on purpose: a Buffer is allocated on a
// *specific* device rather than lazily migrated by the runtime. SkelCL
// manages per-device copies itself (that is the whole point of its Vector
// distribution machinery), so the explicit model keeps every byte of
// inter-device traffic visible to the timing model.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ocl/device.h"

namespace ocl {

class BufferState {
public:
  /// Accounts first, so a request over the device's capacity throws a
  /// typed AllocFailure before any host memory is touched; a failing
  /// host allocation gives the accounted bytes back.
  BufferState(Device device, std::size_t bytes) : device_(std::move(device)) {
    device_.state().allocate(bytes);
    try {
      storage_.resize(bytes);
    } catch (...) {
      device_.state().release(bytes);
      throw;
    }
  }

  ~BufferState() { device_.state().release(storage_.size()); }

  BufferState(const BufferState&) = delete;
  BufferState& operator=(const BufferState&) = delete;

  Device device() const noexcept { return device_; }
  std::size_t size() const noexcept { return storage_.size(); }
  std::uint8_t* data() noexcept { return storage_.data(); }
  const std::uint8_t* data() const noexcept { return storage_.data(); }

private:
  Device device_;
  std::vector<std::uint8_t> storage_;
};

/// Shared handle to a device allocation (clBuffer analogue).
class Buffer {
public:
  Buffer() = default;
  explicit Buffer(std::shared_ptr<BufferState> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }
  std::size_t size() const { return state().size(); }
  Device device() const { return state().device(); }

  BufferState& state() const {
    COMMON_CHECK_MSG(state_ != nullptr, "use of an invalid Buffer handle");
    return *state_;
  }

  friend bool operator==(const Buffer& a, const Buffer& b) noexcept {
    return a.state_ == b.state_;
  }

private:
  std::shared_ptr<BufferState> state_;
};

} // namespace ocl
