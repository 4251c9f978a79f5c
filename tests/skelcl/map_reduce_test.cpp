// MapReduce fused skeleton (extension; DESIGN.md §7).
#include <numeric>
#include <utility>

#include "common/prng.h"
#include "skelcl_test_util.h"

namespace {

using skelcl::MapReduce;
using skelcl::Vector;
using skelcl_test::SkelclFixture;

class MapReduceTest : public SkelclFixture {
protected:
  MapReduceTest() : SkelclFixture(1) {}
};

TEST_F(MapReduceTest, SumOfSquares) {
  MapReduce<float> sumSquares("float sq(float x) { return x * x; }",
                              "float add(float a, float b) { return a + b; }");
  std::vector<float> data(1000);
  std::iota(data.begin(), data.end(), 1.0f);
  Vector<float> input(data);
  double expected = 0;
  for (const float v : data) {
    expected += double(v) * double(v);
  }
  EXPECT_NEAR(double(sumSquares(input).getValue()), expected,
              expected * 1e-5);
}

TEST_F(MapReduceTest, TypeChangingMapReduce) {
  // Count elements above a threshold: Tin=float, Tout=int.
  MapReduce<float, int> countAbove(
      "int above(float x) { return x > 0.5f ? 1 : 0; }",
      "int add(int a, int b) { return a + b; }");
  common::Xoshiro256 rng(3);
  std::vector<float> data(5000);
  int expected = 0;
  for (auto& v : data) {
    v = rng.nextFloat();
    expected += v > 0.5f ? 1 : 0;
  }
  Vector<float> input(data);
  EXPECT_EQ(countAbove(input).getValue(), expected);
}

TEST_F(MapReduceTest, MatchesUnfusedComposition) {
  skelcl::Map<float> square("float sq(float x) { return x * x; }");
  skelcl::Reduce<float> sum("float a(float x, float y) { return x + y; }");
  MapReduce<float> fused("float sq(float x) { return x * x; }",
                         "float a(float x, float y) { return x + y; }");
  common::Xoshiro256 rng(7);
  std::vector<float> data(4097);
  for (auto& v : data) {
    v = float(rng.nextBelow(8));
  }
  auto& runtime = skelcl::detail::Runtime::instance();
  const auto usage = [&] {
    return std::pair(runtime.queue(0).cumulativeKernelLaunches(),
                     runtime.devices()[0].state().kernelCycles());
  };
  Vector<float> a(data), b(data);
  const auto before = usage();
  // Lazy like Reduce: the call enqueues nothing until the read.
  skelcl::Scalar<float> deferred = fused(a);
  EXPECT_EQ(usage(), before);
  const float value = deferred.getValue();
  const auto afterFused = usage();
  EXPECT_EQ(value, sum(square(b)).getValue());
  const auto afterComposed = usage();
  // It is Reduce(Map(x)): the same launches and the same kernel cycles.
  EXPECT_GT(afterFused.first, before.first);
  EXPECT_EQ(afterFused.first - before.first,
            afterComposed.first - afterFused.first);
  EXPECT_EQ(afterFused.second - before.second,
            afterComposed.second - afterFused.second);
}

TEST_F(MapReduceTest, SingleElement) {
  MapReduce<int> mr("int m(int x) { return x + 10; }",
                    "int r(int a, int b) { return a + b; }");
  Vector<int> one(std::vector<int>{5});
  EXPECT_EQ(mr(one).getValue(), 15);
}

TEST_F(MapReduceTest, EmptyReturnsIdentity) {
  MapReduce<int> mr("int m(int x) { return x; }",
                    "int r(int a, int b) { return a + b; }");
  Vector<int> empty;
  EXPECT_EQ(mr(empty).getValue(), 0);

  MapReduce<int> product("int m(int x) { return x; }",
                         "int r(int a, int b) { return a * b; }", 1);
  EXPECT_EQ(product(empty).getValue(), 1);
}

class MapReduceMultiDevice
    : public SkelclFixture,
      public ::testing::WithParamInterface<std::uint32_t> {
public:
  MapReduceMultiDevice() : SkelclFixture(GetParam()) {}
};

TEST_P(MapReduceMultiDevice, BlockDistributedSumOfSquares) {
  MapReduce<long long> sumSq("long sq(long x) { return x * x; }",
                             "long add(long a, long b) { return a + b; }");
  std::vector<long long> data(30000);
  std::iota(data.begin(), data.end(), 0LL);
  Vector<long long> input(data);
  input.setDistribution(skelcl::Distribution::Block);
  long long expected = 0;
  for (const long long v : data) {
    expected += v * v;
  }
  EXPECT_EQ(sumSq(input).getValue(), expected);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MapReduceMultiDevice,
                         ::testing::Values(1u, 2u, 4u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "gpu";
                         });

TEST(MapReduceReinit, SkeletonInstancesSurviveTerminateAndInit) {
  // Skeleton instances outlive a terminate()/init() cycle. Their programs
  // belong to the runtime they were built for, so the second cycle (on a
  // different machine) must request them again instead of reusing the
  // dead runtime's.
  skelcl_test::useTempCacheDir();
  MapReduce<int> sumSq("int sq(int x) { return x * x; }",
                       "int add(int a, int b) { return a + b; }");
  skelcl::Map<int, void> bump(
      "void b(int idx, __global int* data) { data[idx] += idx; }");
  const std::vector<int> data = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

  for (const std::uint32_t gpus : {4u, 1u}) {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
    skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
    const auto& cache = skelcl::detail::Runtime::instance().kernelCache();

    Vector<int> input(data);
    input.setDistribution(skelcl::Distribution::Block);
    Vector<int> indices = skelcl::indexVector(16);
    indices.setDistribution(skelcl::Distribution::Block);
    Vector<int> bumped(16, 0);
    bumped.setDistribution(skelcl::Distribution::Copy);
    skelcl::Arguments args;
    args.push(bumped);

    const auto before = cache.stats();
    const int sum = sumSq(input).getValue();
    bump(indices, args);
    const auto requested = cache.stats() - before;
    EXPECT_GT(requested.hits + requested.misses, 0u)
        << gpus << " gpu(s): no program was requested from the cache";

    EXPECT_EQ(sum, 385) << gpus << " gpu(s)";
    bumped.dataOnDevicesModified();
    bumped.setDistribution(skelcl::Distribution::Block,
                           "int add(int a, int b) { return a + b; }");
    for (std::size_t i = 0; i < 16; ++i) {
      ASSERT_EQ(bumped[i], int(i)) << gpus << " gpu(s)";
    }
    skelcl::terminate();
  }
}

} // namespace
