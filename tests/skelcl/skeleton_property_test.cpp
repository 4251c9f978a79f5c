// Property-based sweeps: every skeleton is checked against its std::
// reference semantics over randomized inputs across a grid of sizes
// (including work-group boundary sizes) and device counts.
#include <numeric>

#include "common/prng.h"
#include "skelcl_test_util.h"

namespace {

using skelcl::Distribution;
using skelcl::Vector;

// Both fields are 64-bit so the struct has no padding: gtest prints the
// parameter's raw bytes into the test listing, and padding bytes would
// make those names differ from one run to the next.
struct Config {
  std::size_t gpus;
  std::size_t size;
};

class SkeletonProperty : public ::testing::TestWithParam<Config> {
protected:
  void SetUp() override {
    skelcl_test::useTempCacheDir();
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(GetParam().gpus));
    skelcl::init(skelcl::DeviceSelection::nGPUs(GetParam().gpus));
  }
  void TearDown() override { skelcl::terminate(); }

  std::vector<int> randomInts(std::size_t n, std::uint64_t seed) {
    common::Xoshiro256 rng(seed ^ (n * 2654435761u) ^ GetParam().gpus);
    std::vector<int> data(n);
    for (auto& v : data) {
      v = int(rng.nextBelow(2001)) - 1000;
    }
    return data;
  }
};

TEST_P(SkeletonProperty, MapMatchesStdTransform) {
  const auto data = randomInts(GetParam().size, 1);
  skelcl::Map<int> f("int f(int x) { return x * 3 - 7; }");
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);
  Vector<int> output = f(input);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(output[i], data[i] * 3 - 7) << i;
  }
}

TEST_P(SkeletonProperty, ZipMatchesStdTransform) {
  const auto a = randomInts(GetParam().size, 2);
  const auto b = randomInts(GetParam().size, 3);
  skelcl::Zip<int> f("int f(int x, int y) { return x * y + x - y; }");
  Vector<int> va(a), vb(b);
  va.setDistribution(Distribution::Block);
  Vector<int> out = f(va, vb);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(out[i], a[i] * b[i] + a[i] - b[i]) << i;
  }
}

TEST_P(SkeletonProperty, ReduceMatchesStdAccumulate) {
  const auto data = randomInts(GetParam().size, 4);
  skelcl::Reduce<int> sum("int s(int x, int y) { return x + y; }");
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);
  EXPECT_EQ(sum(input).getValue(),
            std::accumulate(data.begin(), data.end(), 0));
}

TEST_P(SkeletonProperty, ReduceMinMatchesStdMinElement) {
  const auto data = randomInts(GetParam().size, 5);
  skelcl::Reduce<int> minOp("int m(int x, int y) { return min(x, y); }");
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);
  EXPECT_EQ(minOp(input).getValue(),
            *std::min_element(data.begin(), data.end()));
}

TEST_P(SkeletonProperty, ScanMatchesStdExclusiveScan) {
  const auto data = randomInts(GetParam().size, 6);
  skelcl::Scan<int> scan("int s(int x, int y) { return x + y; }", "0");
  Vector<int> input(data);
  Vector<int> output = scan(input);
  std::vector<int> expected(data.size());
  std::exclusive_scan(data.begin(), data.end(), expected.begin(), 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(output[i], expected[i]) << i;
  }
}

TEST_P(SkeletonProperty, MapReduceMatchesComposition) {
  const auto data = randomInts(GetParam().size, 7);
  skelcl::MapReduce<int> fused("int m(int x) { return x * x; }",
                               "int r(int a, int b) { return a + b; }");
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);
  long long expected = 0;
  for (const int v : data) {
    expected += (long long)v * v;
  }
  // Ints may overflow identically on both sides, so compare as int.
  EXPECT_EQ(fused(input).getValue(), int(expected));
}

std::string configName(const ::testing::TestParamInfo<Config>& info) {
  return std::to_string(info.param.gpus) + "gpu_" +
         std::to_string(info.param.size);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkeletonProperty,
    ::testing::Values(Config{1, 1}, Config{1, 255}, Config{1, 256},
                      Config{1, 257}, Config{1, 4096}, Config{2, 513},
                      Config{2, 8191}, Config{3, 1000}, Config{4, 16384}),
    configName);

} // namespace
