// Scheduling-invariance regression for the transfer/compute-overlap
// runtime: the same chained-skeleton workload run on out-of-order queues
// (default) and with SKELCL_SERIALIZE=1 (classic in-order queues) must
// produce bit-identical buffers and identical total simulated kernel
// cycles — overlap changes *when* commands run, never what they compute
// — and the overlapped schedule must never be slower.
#include "skelcl_test_util.h"

namespace {

using skelcl::Arguments;
using skelcl::Distribution;
using skelcl::Map;
using skelcl::Reduce;
using skelcl::Scalar;
using skelcl::Vector;
using skelcl::Zip;

struct RunOutput {
  std::vector<float> result;
  std::uint64_t virtualNs = 0;
  std::uint64_t kernelCycles = 0;
};

std::uint64_t sumQueueCycles() {
  auto& runtime = skelcl::detail::Runtime::instance();
  std::uint64_t total = 0;
  for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
    total += runtime.queue(d).cumulativeKernelCycles();
  }
  return total;
}

void initRuntime(bool serialized, std::uint32_t gpus) {
  if (serialized) {
    ::setenv("SKELCL_SERIALIZE", "1", 1);
  } else {
    ::unsetenv("SKELCL_SERIALIZE");
  }
  skelcl_test::useTempCacheDir();
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
}

void syncAllQueues() {
  auto& runtime = skelcl::detail::Runtime::instance();
  for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
    runtime.queue(d).finish();
  }
}

/// Map -> Zip -> Reduce chain on one GPU. The input is big enough that
/// its upload is split into pieces and the Zip pipelines against them.
RunOutput runChain(bool serialized) {
  initRuntime(serialized, 1);
  RunOutput out;
  {
    Map<float> inc("float inc(float x) { return x + 1.0f; }");
    Zip<float> add("float add(float x, float y) { return x + y; }");
    Reduce<float> sum("float sum(float x, float y) { return x + y; }");

    const std::size_t n = std::size_t(1) << 19; // 2 MiB: split upload
    std::vector<float> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = float(i % 97) * 0.5f;
    }
    const std::uint64_t t0 = ocl::hostTimeNs();
    Vector<float> x(std::move(data));
    Vector<float> y = inc(x);
    Vector<float> z = add(x, y);
    Scalar<float> s = sum(z);
    out.result = z.hostData();
    out.result.push_back(s.getValue());
    syncAllQueues();
    out.virtualNs = ocl::hostTimeNs() - t0;
    out.kernelCycles = sumQueueCycles();
  }
  skelcl::terminate();
  ::unsetenv("SKELCL_SERIALIZE");
  return out;
}

/// Copy -> block redistribution with a combine function on 4 GPUs: the
/// path whose cross-device copies double-buffer against the combine
/// kernels when overlap is on.
RunOutput runMerge(bool serialized) {
  initRuntime(serialized, 4);
  RunOutput out;
  {
    Map<float> touch("float touch(float x) { return x * 2.0f; }");
    const std::size_t n = std::size_t(1) << 14;
    const std::uint64_t t0 = ocl::hostTimeNs();
    Vector<float> c(n, 1.5f);
    c.setDistribution(Distribution::Copy);
    touch(c, Arguments{}, c); // dirty every device's copy on-device
    c.setDistribution(Distribution::Block,
                      "float add(float x, float y) { return x + y; }");
    out.result = c.hostData();
    syncAllQueues();
    out.virtualNs = ocl::hostTimeNs() - t0;
    out.kernelCycles = sumQueueCycles();
  }
  skelcl::terminate();
  ::unsetenv("SKELCL_SERIALIZE");
  return out;
}

TEST(OverlapRegression, ChainedSkeletonsMatchSerializedMode) {
  const RunOutput serialized = runChain(/*serialized=*/true);
  const RunOutput overlapped = runChain(/*serialized=*/false);
  EXPECT_EQ(serialized.result, overlapped.result); // bit-identical
  EXPECT_EQ(serialized.kernelCycles, overlapped.kernelCycles);
  EXPECT_LE(overlapped.virtualNs, serialized.virtualNs);
}

TEST(OverlapRegression, CopyToBlockMergeMatchesSerializedMode) {
  const RunOutput serialized = runMerge(/*serialized=*/true);
  const RunOutput overlapped = runMerge(/*serialized=*/false);
  EXPECT_EQ(serialized.result, overlapped.result); // bit-identical
  EXPECT_EQ(serialized.kernelCycles, overlapped.kernelCycles);
  EXPECT_LE(overlapped.virtualNs, serialized.virtualNs);
}

// --- slicing of split launches --------------------------------------------

std::uint64_t sumQueueLaunches() {
  auto& runtime = skelcl::detail::Runtime::instance();
  std::uint64_t total = 0;
  for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
    total += runtime.queue(d).cumulativeKernelLaunches();
  }
  return total;
}

// A 2^20-float operand uploads in 4 pieces. An element-wise launch splits
// per piece when every slice keeps 4 waves of work-groups per compute
// unit (4096 groups against 4 x 30 per slice); the fused dot product's
// first pass splits once each piece unlocks whole groups (64 tree
// groups), and one tree pass folds its partials.
TEST(OverlapRegression, SplitLaunchesFollowEachCallersThreshold) {
  initRuntime(/*serialized=*/false, 1);
  {
    Zip<float> mul("float mul(float x, float y) { return x * y; }");
    Reduce<float> sum("float sum(float x, float y) { return x + y; }");
    const std::size_t n = std::size_t(1) << 20;
    std::vector<float> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = float(i % 4);
    }

    Vector<float> a(data), b(data);
    std::uint64_t before = sumQueueLaunches();
    Vector<float> product = mul(a, b);
    EXPECT_EQ(product[n - 1], 9.0f);
    EXPECT_EQ(sumQueueLaunches() - before, 4u);

    Vector<float> x(data), y(data);
    before = sumQueueLaunches();
    EXPECT_EQ(sum(mul(x, y)).getValue(), float(n / 4 * 14));
    EXPECT_EQ(sumQueueLaunches() - before, 5u);
  }
  skelcl::terminate();
}

// A 4 MiB Map over 64-byte elements uploads in 4 pieces too, but its 256
// work-groups fall short of 4 waves per slice: it stays one launch.
TEST(OverlapRegression, ElementwiseLaunchBelowFourWavesPerSliceStaysWhole) {
  struct Wide64 {
    float values[16];
  };
  skelcl::registerType<Wide64>(
      "Wide64", "typedef struct { float values[16]; } Wide64;");
  initRuntime(/*serialized=*/false, 1);
  {
    skelcl::Map<Wide64, float> first("float first(Wide64 w) {"
                                     " return w.values[0]; }");
    std::vector<Wide64> data(std::size_t(1) << 16);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i].values[0] = float(i);
    }
    Vector<Wide64> input(data);
    const std::uint64_t before = sumQueueLaunches();
    Vector<float> out = first(input);
    EXPECT_EQ(out[data.size() - 1], float(data.size() - 1));
    EXPECT_EQ(sumQueueLaunches() - before, 1u);
  }
  skelcl::terminate();
}

TEST(OverlapRegression, SerializeEnvSelectsInOrderQueues) {
  initRuntime(/*serialized=*/true, 1);
  EXPECT_TRUE(skelcl::detail::Runtime::instance().serializedQueues());
  EXPECT_EQ(skelcl::detail::Runtime::instance().queue(0).order(),
            ocl::QueueOrder::InOrder);
  skelcl::terminate();

  initRuntime(/*serialized=*/false, 1);
  EXPECT_FALSE(skelcl::detail::Runtime::instance().serializedQueues());
  EXPECT_EQ(skelcl::detail::Runtime::instance().queue(0).order(),
            ocl::QueueOrder::OutOfOrder);
  skelcl::terminate();
  ::unsetenv("SKELCL_SERIALIZE");
}

} // namespace
