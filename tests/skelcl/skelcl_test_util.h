// Shared fixture for SkelCL tests: a fresh simulated Tesla S1070 and a
// per-process temporary kernel-cache directory.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "skelcl/skelcl.h"

namespace skelcl_test {

inline void useTempCacheDir() {
  static const std::string dir = [] {
    auto path = std::filesystem::temp_directory_path() /
                ("skelcl-test-cache-" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
    ::setenv("SKELCL_CACHE_DIR", path.c_str(), 1);
    return path.string();
  }();
  (void)dir;
}

/// DMA bytes every device has moved so far (both engines, all links).
inline std::uint64_t totalDmaBytes() {
  std::uint64_t total = 0;
  for (const ocl::Device& d : skelcl::detail::Runtime::instance().devices()) {
    total += d.state().dmaBytes();
  }
  return total;
}

/// Kernel launches enqueued so far, summed over every device queue.
inline std::uint64_t totalKernelLaunches() {
  auto& runtime = skelcl::detail::Runtime::instance();
  std::uint64_t total = 0;
  for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
    total += runtime.queue(d).cumulativeKernelLaunches();
  }
  return total;
}

/// Fixture parameterized on GPU count via the constructor.
class SkelclFixture : public ::testing::Test {
protected:
  explicit SkelclFixture(std::uint32_t gpus = 1) : gpus_(gpus) {}

  void SetUp() override {
    useTempCacheDir();
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus_));
    skelcl::init(skelcl::DeviceSelection::nGPUs(gpus_));
  }

  void TearDown() override { skelcl::terminate(); }

  std::uint32_t gpus_;
};

} // namespace skelcl_test
