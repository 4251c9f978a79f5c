// Multi-GPU behaviour: skeletons over block/copy-distributed vectors,
// implicit synchronization, redistribution, and virtual-time scaling.
#include <cstdint>
#include <numeric>

#include "common/prng.h"
#include "skelcl_test_util.h"

namespace {

using skelcl::Arguments;
using skelcl::Distribution;
using skelcl::Map;
using skelcl::Reduce;
using skelcl::Scan;
using skelcl::Vector;
using skelcl::Zip;

class MultiDeviceTest : public skelcl_test::SkelclFixture,
                        public ::testing::WithParamInterface<std::uint32_t> {
public:
  MultiDeviceTest() : SkelclFixture(GetParam()) {}
};

TEST_P(MultiDeviceTest, MapOverBlockDistribution) {
  Map<int> inc("int inc(int x) { return x + 1; }");
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);
  Vector<int> output = inc(input);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(output[i], int(i) + 1) << i;
  }
}

TEST_P(MultiDeviceTest, ZipOverBlockDistribution) {
  Zip<float> add("float add(float a, float b) { return a + b; }");
  const std::size_t n = 777; // odd size: uneven blocks
  std::vector<float> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = float(i);
    b[i] = 1000.0f - float(i);
  }
  Vector<float> va(a), vb(b);
  va.setDistribution(Distribution::Block);
  Vector<float> out = add(va, vb);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_FLOAT_EQ(out[i], 1000.0f) << i;
  }
}

TEST_P(MultiDeviceTest, ReduceOverBlockDistribution) {
  Reduce<int> sum("int sum(int a, int b) { return a + b; }");
  // 60000 keeps the exact sum within int range (1800030000 < 2^31).
  std::vector<int> data(60000);
  std::iota(data.begin(), data.end(), 1);
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);
  EXPECT_EQ(sum(input).getValue(), (60000 / 2) * 60001);
}

TEST_P(MultiDeviceTest, ReduceNonCommutativeAcrossDevices) {
  Reduce<int> last("int pick(int a, int b) { return b; }");
  std::vector<int> data(4099);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);
  EXPECT_EQ(last(input).getValue(), 4098);
}

TEST_P(MultiDeviceTest, ScanGathersDistributedInput) {
  Scan<int> scan("int add(int a, int b) { return a + b; }", "0");
  std::vector<int> data(3000, 1);
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);
  Vector<int> output = scan(input);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(output[i], int(i)) << i;
  }
}

class ScanFourDevices : public skelcl_test::SkelclFixture {
public:
  ScanFourDevices() : SkelclFixture(4) {}
};

/// DMA bytes all devices moved while one Scan over `in` ran and its
/// result was downloaded.
std::uint64_t scanDmaBytes(const Vector<int>& in) {
  Scan<int> scan("int add_pin(int a, int b) { return a + b; }", "0");
  const std::uint64_t before = skelcl_test::totalDmaBytes();
  Vector<int> out = scan(in);
  (void)out[0]; // downloads the whole result
  return skelcl_test::totalDmaBytes() - before;
}

// A Scan whose input is still pending is placed at evaluation. The Scan
// absorbs the pending Map, so placement gathers the Map's own input, the
// plan's leaf, onto one device. A fresh vector already sits on device 0,
// so only the result comes back. A block vector whose host copy is
// current is uploaded whole to device 0 first.
TEST_F(ScanFourDevices, PendingInputIsPlacedAtEvaluation) {
  const std::size_t n = 1024;
  const std::uint64_t bytes = n * sizeof(int);
  Map<int> inc("int inc_pin(int x) { return x + 1; }");

  Vector<int> fresh(std::vector<int>(n, 1));
  EXPECT_EQ(scanDmaBytes(inc(fresh)), bytes);

  Vector<int> blocks(std::vector<int>(n, 1));
  blocks.setDistribution(Distribution::Block);
  EXPECT_EQ(scanDmaBytes(inc(blocks)), 2 * bytes);
}

TEST_P(MultiDeviceTest, MapOverCopyRunsEverywhere) {
  Map<int> inc("int inc(int x) { return x + 1; }");
  Vector<int> input(std::vector<int>(100, 7));
  input.setDistribution(Distribution::Copy);
  Vector<int> output = inc(input);
  EXPECT_EQ(output.distribution(), Distribution::Copy);
  EXPECT_EQ(output[0], 8);
  EXPECT_EQ(output[99], 8);
}

TEST_P(MultiDeviceTest, VoidMapWithBlockInputAndCopyArguments) {
  // The OSEM access pattern: indices block-distributed, images copied,
  // per-device sizes via pushSizeOf.
  Map<int, void> accumulate(
      "void acc(int idx, __global const int* data, uint n,"
      "         __global int* out) {"
      "  int total = 0;"
      "  for (uint k = 0; k < n; ++k) total += data[k];"
      "  out[idx] = total + idx;"
      "}");
  Vector<int> indices = skelcl::indexVector(64);
  indices.setDistribution(Distribution::Block);
  Vector<int> data(std::vector<int>{1, 2, 3, 4}); // sums to 10
  data.setDistribution(Distribution::Copy);
  Vector<int> out(64, 0);
  out.setDistribution(Distribution::Copy);

  Arguments args;
  args.push(data);
  args.pushSizeOf(data);
  args.push(out);
  accumulate(indices, args);
  out.dataOnDevicesModified();

  // Each device wrote the slots of ITS indices into ITS copy of `out`;
  // folding the copies with max() merges them (0 stays elsewhere).
  out.setDistribution(Distribution::Block,
                      "int mx(int a, int b) { return max(a, b); }");
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(out[i], 10 + int(i)) << i;
  }
}

TEST_P(MultiDeviceTest, CombineRedistributionSumsCopies) {
  const auto devices = skelcl::deviceCount();
  Map<int, void> bump(
      "void b(int idx, __global int* data) { data[idx] += idx; }");
  Vector<int> indices = skelcl::indexVector(32);
  indices.setDistribution(Distribution::Block);
  Vector<int> data(32, 0);
  data.setDistribution(Distribution::Copy);
  Arguments args;
  args.push(data);
  bump(indices, args);
  data.dataOnDevicesModified();
  data.setDistribution(Distribution::Block,
                       "int add(int a, int b) { return a + b; }");
  // Every index was bumped on exactly one device; the other copies hold
  // 0 there, so the sum equals idx regardless of the device count.
  for (std::size_t i = 0; i < 32; ++i) {
    ASSERT_EQ(data[i], int(i)) << "devices=" << devices;
  }
}

TEST_P(MultiDeviceTest, RepeatedCombineReusesItsProgram) {
  // Each combine redistribution builds its program through the runtime's
  // per-init() program memo: a second combine with the same source
  // resolves nothing from the kernel cache (OSEM combines once per
  // subset).
  Map<int, void> bump(
      "void b(int idx, __global int* data) { data[idx] += 1; }");
  Vector<int> indices = skelcl::indexVector(64);
  indices.setDistribution(Distribution::Block);
  const auto combineOnce = [&](Vector<int>& data) {
    data.setDistribution(Distribution::Copy);
    Arguments args;
    args.push(data);
    bump(indices, args);
    data.dataOnDevicesModified();
    data.setDistribution(Distribution::Block,
                         "int add(int a, int b) { return a + b; }");
  };
  Vector<int> first(64, 0);
  combineOnce(first);
  Vector<int> second(64, 5);
  skelcl::detail::StatsScope scope;
  combineOnce(second);
  const auto cache = scope.cacheDelta();
  EXPECT_EQ(cache.hits + cache.misses, 0u)
      << "devices=" << skelcl::deviceCount();
  // Every index was bumped on exactly one device; the other copies keep
  // their initial value.
  const int copies = int(skelcl::deviceCount());
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(first[i], 1) << i;
    ASSERT_EQ(second[i], 5 * copies + 1) << i;
  }
}

TEST_P(MultiDeviceTest, DotProductDistributed) {
  Reduce<float> sum("float sum(float x, float y) { return x + y; }");
  Zip<float> mult("float mult(float x, float y) { return x * y; }");
  common::Xoshiro256 rng(5);
  const std::size_t n = 4096;
  std::vector<float> a(n), b(n);
  float expected = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = float(rng.nextBelow(16));
    b[i] = float(rng.nextBelow(16));
    expected += a[i] * b[i];
  }
  Vector<float> A(a), B(b);
  A.setDistribution(Distribution::Block);
  EXPECT_FLOAT_EQ(sum(mult(A, B)).getValue(), expected);
}

// Element sizes other than 4 bytes: the device side is byte-level
// (chunk offsets, split-upload pieces, combine copies are all scaled by
// the element size), so 8- and 1-byte types must land exactly where the
// 4-byte ones do. Host oracles; values chosen to be exact in double.

TEST_P(MultiDeviceTest, DoubleZipOverSplitBlockUpload) {
  Zip<double> axpy("double axpy(double x, double y) { return 0.5 * x + y; }");
  // 1 Mi doubles: >= 2 MiB per chunk on up to 4 devices, so every
  // block upload is split into pieces the launch pipelines against.
  const std::size_t n = std::size_t(1) << 20;
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = double(i);
    b[i] = double(n - i) * 0.25;
  }
  Vector<double> va(a), vb(b);
  va.setDistribution(Distribution::Block);
  va.state().ensureOnDevices();
  for (const auto& chunk : va.state().chunks()) {
    ASSERT_GE(chunk.pieces.size(), 2u) << "device " << chunk.deviceIndex;
  }
  Vector<double> out = axpy(va, vb);
  const std::vector<double>& host = out.hostData();
  ASSERT_EQ(host.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(host[i], 0.5 * a[i] + b[i]) << i;
  }
}

TEST_P(MultiDeviceTest, DoubleReduceOverBlockDistribution) {
  Reduce<double> sum("double sum(double a, double b) { return a + b; }");
  const std::size_t n = 100003;
  std::vector<double> data(n);
  double expected = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = double(i % 1000) * 0.5;
    expected += data[i];
  }
  Vector<double> input(data);
  input.setDistribution(Distribution::Block);
  // Every partial sum is a multiple of 0.5 below 2^52: exact in any
  // association order.
  EXPECT_EQ(sum(input).getValue(), expected);
}

TEST_P(MultiDeviceTest, ByteMapOverThreeMebibytes) {
  Map<std::uint8_t> scramble(
      "uchar scramble(uchar x) { return (uchar)(x * 7 + 3); }");
  const std::size_t n = std::size_t(3) << 20;
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = std::uint8_t(i * 31 + (i >> 8));
  }
  Vector<std::uint8_t> input(data);
  input.setDistribution(Distribution::Block);
  Vector<std::uint8_t> output = scramble(input);
  const std::vector<std::uint8_t>& host = output.hostData();
  ASSERT_EQ(host.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(host[i], std::uint8_t(data[i] * 7 + 3)) << i;
  }
}

TEST_P(MultiDeviceTest, DoubleCombineRedistributionSumsCopies) {
  Map<int, void> bump(
      "void b(int idx, __global double* data) { data[idx] += idx * 0.5; }");
  const std::size_t n = 1001; // uneven blocks on 2, 3 and 4 devices
  Vector<int> indices = skelcl::indexVector(n);
  indices.setDistribution(Distribution::Block);
  Vector<double> data(n, 1.0);
  data.setDistribution(Distribution::Copy);
  Arguments args;
  args.push(data);
  bump(indices, args);
  data.dataOnDevicesModified();
  data.setDistribution(Distribution::Block,
                       "double add(double a, double b) { return a + b; }");
  // Each copy starts at 1.0 and only one device bumps a given index, so
  // the sum over D copies is D + idx / 2.
  const double copies = double(skelcl::deviceCount());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(data[i], copies + double(i) * 0.5) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MultiDeviceTest,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "gpu";
                         });

TEST(MultiDeviceTiming, FourGpusBeatOneInVirtualTime) {
  skelcl_test::useTempCacheDir();
  const auto runWorkload = [](std::uint32_t gpus) {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
    skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
    Map<float> heavy(
        "float h(float x) {"
        "  float acc = x;"
        "  for (int k = 0; k < 64; ++k) acc = acc * 1.0001f + 0.5f;"
        "  return acc;"
        "}");
    Vector<float> input(std::vector<float>(1 << 15, 1.0f));
    input.setDistribution(Distribution::Block);
    input.state().ensureOnDevices();
    const auto start = ocl::hostTimeNs();
    Vector<float> out = heavy(input);
    out.state().ensureOnHost();
    const auto elapsed = ocl::hostTimeNs() - start;
    skelcl::terminate();
    return elapsed;
  };
  const auto one = runWorkload(1);
  const auto four = runWorkload(4);
  EXPECT_LT(four, one);
  EXPECT_GT(double(one) / double(four), 2.0)
      << "expected a clear multi-GPU speedup in virtual time";
}

} // namespace
