// Heterogeneous simulated platforms and the weighted block
// distribution (DESIGN.md §6e): the SKELCL_DEVICES spec grammar, the
// deterministic largest-remainder partitioner, block weights taken from
// each device's peak throughput, and that the fault-injection and
// schedule-fuzzing guarantees carry over to skewed machines.
#include <cstdlib>
#include <numeric>

#include "skelcl/detail/partition.h"
#include "skelcl_test_util.h"
#include "trace/recorder.h"

namespace {

using skelcl::Distribution;
using skelcl::Map;
using skelcl::MapReduce;
using skelcl::Reduce;
using skelcl::Scan;
using skelcl::Vector;
using skelcl::Zip;
using skelcl::detail::Runtime;
using skelcl::detail::weightedPartition;

// ---------------------------------------------------------------------
// weightedPartition: pure-function pins (no runtime needed).
// ---------------------------------------------------------------------

TEST(WeightedPartition, EqualWeightsReproduceHistoricalEvenSplit) {
  // The seed split was base = n / devices plus one extra element on the
  // first n % devices devices. These exact sizes are pinned by
  // vector_test (10/2 -> {5,5}, 7/2 -> {4,3}); the partitioner must
  // keep producing them forever.
  const std::vector<double> two(2, 1.0);
  EXPECT_EQ(weightedPartition(10, two), (std::vector<std::size_t>{5, 5}));
  EXPECT_EQ(weightedPartition(7, two), (std::vector<std::size_t>{4, 3}));
  const std::vector<double> four(4, 1.0);
  EXPECT_EQ(weightedPartition(10, four),
            (std::vector<std::size_t>{3, 3, 2, 2}));
  const std::vector<double> three(3, 1.0);
  EXPECT_EQ(weightedPartition(7, three), (std::vector<std::size_t>{3, 2, 2}));
}

TEST(WeightedPartition, RemainderSpreadsByLargestFraction) {
  EXPECT_EQ(weightedPartition(10, {2.0, 1.0, 1.0}),
            (std::vector<std::size_t>{5, 3, 2}));
  EXPECT_EQ(weightedPartition(5, {3.0, 1.0}),
            (std::vector<std::size_t>{4, 1}));
}

TEST(WeightedPartition, DegenerateInputs) {
  // Fewer elements than devices: the tail devices get zero elements.
  EXPECT_EQ(weightedPartition(3, std::vector<double>(5, 1.0)),
            (std::vector<std::size_t>{1, 1, 1, 0, 0}));
  // Empty vector: every device gets zero.
  EXPECT_EQ(weightedPartition(0, std::vector<double>(3, 1.0)),
            (std::vector<std::size_t>{0, 0, 0}));
  // A zero-weight device receives nothing.
  EXPECT_EQ(weightedPartition(5, {0.0, 1.0}),
            (std::vector<std::size_t>{0, 5}));
  // All-zero weights fall back to the even split instead of dividing
  // by zero.
  EXPECT_EQ(weightedPartition(4, {0.0, 0.0}),
            (std::vector<std::size_t>{2, 2}));
}

TEST(WeightedPartition, SumInvariantOverSweep) {
  const std::vector<double> weights = {3.7, 0.0, 1.1, 2.9};
  for (std::size_t n = 0; n < 300; ++n) {
    const auto counts = weightedPartition(n, weights);
    ASSERT_EQ(counts.size(), weights.size());
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
              n)
        << "n=" << n;
    EXPECT_EQ(counts[1], 0u) << "n=" << n; // zero weight stays empty
  }
}

TEST(WeightedPartition, RejectsBadWeights) {
  EXPECT_THROW(weightedPartition(4, {1.0, -1.0}), common::Error);
  EXPECT_THROW(weightedPartition(4, {}), common::Error);
}

// ---------------------------------------------------------------------
// SystemConfig::parse: the SKELCL_DEVICES grammar.
// ---------------------------------------------------------------------

TEST(DeviceSpecParse, BuildsHeterogeneousPlatform) {
  const ocl::SystemConfig config =
      ocl::SystemConfig::parse("t10*2, t10@0.5x, cpu");
  ASSERT_EQ(config.devices.size(), 4u);

  const ocl::DeviceSpec full = ocl::DeviceSpec::teslaT10();
  EXPECT_EQ(config.devices[0].name, full.name);
  EXPECT_DOUBLE_EQ(config.devices[0].clockGHz, full.clockGHz);
  EXPECT_DOUBLE_EQ(config.devices[1].clockGHz, full.clockGHz);

  // The scaled device runs at half clock and half memory bandwidth but
  // keeps its PCIe link (the bus does not slow down with the chip).
  EXPECT_DOUBLE_EQ(config.devices[2].clockGHz, full.clockGHz * 0.5);
  EXPECT_DOUBLE_EQ(config.devices[2].memBandwidthGBs,
                   full.memBandwidthGBs * 0.5);
  EXPECT_DOUBLE_EQ(config.devices[2].pcieBandwidthGBs, full.pcieBandwidthGBs);
  EXPECT_NE(config.devices[2].name.find("@0.5x"), std::string::npos);

  EXPECT_EQ(config.devices[3].type, ocl::DeviceType::CPU);
  EXPECT_NE(config.platformName.find("t10*2"), std::string::npos);
}

TEST(DeviceSpecParse, SuffixesComposeInEitherOrder) {
  for (const char* spec : {"t10@0.5x*2", "t10*2@0.5x"}) {
    const ocl::SystemConfig config = ocl::SystemConfig::parse(spec);
    ASSERT_EQ(config.devices.size(), 2u) << spec;
    EXPECT_DOUBLE_EQ(config.devices[0].clockGHz, 0.72) << spec;
    EXPECT_DOUBLE_EQ(config.devices[1].clockGHz, 0.72) << spec;
  }
}

TEST(DeviceSpecParse, RejectsMalformedSpecs) {
  // Strict by design: a typo must not silently configure a different
  // machine than the experiment intended.
  for (const char* spec :
       {"", "t10,,cpu", "gtx280", "t10@x", "t10@0x", "t10@-1x", "t10@2",
        "t10*0", "t10*2*3", "t10@1x@2x", "t10*two"}) {
    EXPECT_THROW(ocl::SystemConfig::parse(spec), common::InvalidArgument)
        << "spec '" << spec << "' should be rejected";
  }
}

TEST(DeviceSpecScaled, ComposesIdempotentlyWithoutStackingSuffixes) {
  // Regression: scaled() used to append " @Nx" on every call, so
  // scaled(0.5).scaled(0.5) produced "name @0.5x @0.5x" and the factors
  // compounded unpredictably with the parser's own scaling. The suffix
  // now always reflects the single composed factor.
  const ocl::DeviceSpec base = ocl::DeviceSpec::teslaT10();
  const ocl::DeviceSpec half = base.scaled(0.5);
  EXPECT_EQ(half.name, base.name + " @0.5x");
  EXPECT_DOUBLE_EQ(half.scale, 0.5);

  const ocl::DeviceSpec quarter = half.scaled(0.5);
  EXPECT_EQ(quarter.name, base.name + " @0.25x");
  EXPECT_DOUBLE_EQ(quarter.clockGHz, base.clockGHz * 0.25);
  EXPECT_DOUBLE_EQ(quarter.memBandwidthGBs, base.memBandwidthGBs * 0.25);

  // Scaling back to 1.0 restores the clean base spec, name and all.
  const ocl::DeviceSpec roundTrip = half.scaled(2.0);
  EXPECT_EQ(roundTrip.name, base.name);
  EXPECT_DOUBLE_EQ(roundTrip.scale, 1.0);
  EXPECT_DOUBLE_EQ(roundTrip.clockGHz, base.clockGHz);
  EXPECT_DOUBLE_EQ(roundTrip.busyPowerW, base.busyPowerW);
  // PCIe and idle power never scale with the chip.
  EXPECT_DOUBLE_EQ(quarter.pcieBandwidthGBs, base.pcieBandwidthGBs);
  EXPECT_DOUBLE_EQ(quarter.idlePowerW, base.idlePowerW);
}

// ---------------------------------------------------------------------
// Runtime integration: machine weights, determinism, geometry alignment.
// ---------------------------------------------------------------------

/// Fixture for tests that build their own platform per test body (the
/// shared SkelclFixture hardcodes the uniform Tesla S1070).
class HeteroTest : public ::testing::Test {
protected:
  void initPlatform(const std::string& spec) {
    skelcl_test::useTempCacheDir();
    ocl::configureSystem(ocl::SystemConfig::parse(spec));
    skelcl::init(skelcl::DeviceSelection::allDevices());
  }

  void TearDown() override {
    ocl::FaultInjector::instance().reset();
    ::unsetenv("SKELCL_DEVICES");
    ::unsetenv("SKELCL_SCHEDULE_SEED");
    if (Runtime::instance().initialized()) {
      skelcl::terminate();
    }
  }

  static std::vector<std::size_t> chunkCounts(const Vector<float>& v) {
    std::vector<std::size_t> counts;
    for (const auto& chunk : v.state().chunks()) {
      counts.push_back(chunk.count);
    }
    return counts;
  }
};

TEST_F(HeteroTest, EnvSpecAndWeightsDriveInit) {
  skelcl_test::useTempCacheDir();
  ::setenv("SKELCL_DEVICES", "t10@0.5x*2,cpu", 1);
  skelcl::init(); // default GPU selection is overridden by the spec
  EXPECT_EQ(skelcl::deviceCount(), 3u);
  // The spec'd devices' peak throughput is the block weights.
  const double half = ocl::DeviceSpec::teslaT10().scaled(0.5).peakCyclesPerNs();
  EXPECT_EQ(Runtime::instance().blockWeights(),
            (std::vector<double>{
                half, half, ocl::DeviceSpec::xeonE5520().peakCyclesPerNs()}));
}

TEST_F(HeteroTest, StaticWeightsFavorFasterDevice) {
  initPlatform("t10,t10@0.5x");
  // Peak throughput 2:1, so 9 elements split exactly {6, 3}.
  EXPECT_EQ(Runtime::instance().blockPartition(9),
            (std::vector<std::size_t>{6, 3}));

  Vector<float> v(9, 1.0f);
  v.setDistribution(Distribution::Block);
  v.state().ensureOnDevices();
  EXPECT_EQ(chunkCounts(v), (std::vector<std::size_t>{6, 3}));
  EXPECT_EQ(v.state().chunks()[1].offset, 6u);
}

TEST_F(HeteroTest, UniformPlatformAllModesMatchSeedSplit) {
  // Acceptance pin: on a uniform platform the machine's weights are
  // equal, so the split is exactly the historical even one — chunk
  // boundaries and outputs both.
  skelcl_test::useTempCacheDir();
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(4));
  skelcl::init(skelcl::DeviceSelection::nGPUs(4));

  const std::vector<std::size_t> seedSplit = {251, 251, 251, 250};
  EXPECT_EQ(Runtime::instance().blockPartition(1003), seedSplit);

  std::vector<float> data(1003);
  std::iota(data.begin(), data.end(), 0.0f);
  Vector<float> v(data);
  v.setDistribution(Distribution::Block);
  v.state().ensureOnDevices();
  EXPECT_EQ(chunkCounts(v), seedSplit);

  Map<float> triple("float triple(float x) { return 3.0f * x; }");
  Vector<float> out = triple(v);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(out[i], 3.0f * data[i]) << i;
  }
}

TEST_F(HeteroTest, SameSpecSameSplitAcrossInitCycles) {
  // Weighted partitions are a pure function of the spec: two
  // independent init() cycles over the same machine must produce
  // identical chunk boundaries and identical outputs.
  auto run = [this] {
    initPlatform("t10*2,t10@0.5x");
    std::vector<float> data(4097);
    std::iota(data.begin(), data.end(), 0.0f);
    Vector<float> v(data);
    v.setDistribution(Distribution::Block);
    v.state().ensureOnDevices();
    std::vector<std::size_t> layout;
    for (const auto& chunk : v.state().chunks()) {
      layout.push_back(chunk.offset);
      layout.push_back(chunk.count);
    }
    Map<float> negate("float neg(float x) { return -x; }");
    Vector<float> out = negate(v);
    std::vector<float> host(out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      host[i] = out[i];
    }
    skelcl::terminate();
    return std::make_pair(layout, host);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST_F(HeteroTest, ZipSizeMismatchIsTypedAndNamesBothSides) {
  initPlatform("t10*2");
  Zip<float> add("float add(float x, float y) { return x + y; }");
  Vector<float> left(3, 1.0f);
  Vector<float> right(5, 2.0f);
  left.setDistribution(Distribution::Block);
  right.setDistribution(Distribution::Copy);
  try {
    Vector<float> out = add(left, right);
    FAIL() << "expected ZipSizeMismatch";
  } catch (const skelcl::ZipSizeMismatch& e) {
    EXPECT_EQ(e.leftSize(), 3u);
    EXPECT_EQ(e.rightSize(), 5u);
    EXPECT_EQ(e.leftDistribution(), Distribution::Block);
    EXPECT_EQ(e.rightDistribution(), Distribution::Copy);
    const std::string what = e.what();
    EXPECT_NE(what.find("3 element(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("5 element(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("copy"), std::string::npos) << what;
  }
}

TEST_F(HeteroTest, ZipAutoRedistributesWhenOnlyDistributionDiffers) {
  initPlatform("t10,t10@0.5x");
  Zip<float> sub("float sub(float x, float y) { return x - y; }");
  std::vector<float> a(999), b(999);
  std::iota(a.begin(), a.end(), 0.0f);
  std::iota(b.begin(), b.end(), 100.0f);
  Vector<float> left(a), right(b);
  left.setDistribution(Distribution::Block);
  right.setDistribution(Distribution::Copy); // mismatched, same size
  Vector<float> out = sub(left, right);
  for (std::size_t i = 0; i < out.size(); i += 97) {
    ASSERT_FLOAT_EQ(out[i], -100.0f) << i;
  }
  // The right operand was aligned to the left's block layout in place.
  EXPECT_EQ(right.distribution(), Distribution::Block);
  ASSERT_EQ(right.state().chunks().size(), left.state().chunks().size());
  for (std::size_t i = 0; i < left.state().chunks().size(); ++i) {
    EXPECT_EQ(right.state().chunks()[i].count,
              left.state().chunks()[i].count);
  }
}

TEST_F(HeteroTest, ZipAlignsStencilRowBlocksWithFreshBlocks) {
  // A Stencil output keeps its input's row-aligned blocks, which differ
  // from a fresh block partition of the same size. Zip must align the
  // right operand to the left's *actual* chunks, not assume both blocks
  // are congruent.
  initPlatform("t10,t10@0.5x");
  const std::size_t width = 16384; // wide enough for row-aligned blocks
  const std::size_t n = 10 * width; // rows split {7, 3}
  std::vector<float> data(n);
  std::iota(data.begin(), data.end(), 0.0f);
  skelcl::Stencil<float> centre(
      "float centre(__global const float* w, uint st) {\n"
      "  return w[(int)st + 1];\n"
      "}\n",
      skelcl::StencilShape{1, skelcl::Boundary::Clamp, width});
  Vector<float> grid(data);
  Vector<float> a = centre(grid);
  (void)a[0];
  EXPECT_EQ(chunkCounts(a), (std::vector<std::size_t>{114688, 49152}));

  Vector<float> b(data);
  b.setDistribution(Distribution::Block);
  b.state().ensureOnDevices();
  EXPECT_EQ(chunkCounts(b), (std::vector<std::size_t>{109227, 54613}))
      << "test premise: the two partitions should disagree";

  Zip<float> add("float add2(float x, float y) { return x + y; }");
  Vector<float> out = add(a, b);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_FLOAT_EQ(out[i], 2.0f * float(i)) << i;
  }
  // b was re-staged onto a's geometry.
  EXPECT_EQ(chunkCounts(b), chunkCounts(a));
}

// ---------------------------------------------------------------------
// Degenerate sizes: no zero-length device commands, ever.
// ---------------------------------------------------------------------

TEST_F(HeteroTest, EmptyVectorsIssueNoDeviceCommands) {
  initPlatform("t10*2,cpu");
  trace::Recorder::instance().start();

  Vector<float> empty;
  empty.setDistribution(Distribution::Block);
  Map<float> inc("float inc_e(float x) { return x + 1.0f; }");
  Vector<float> mapped = inc(empty);
  EXPECT_EQ(mapped.size(), 0u);

  Reduce<float> sum("float add(float x, float y) { return x + y; }");
  EXPECT_FLOAT_EQ(sum(empty).getValue(), 0.0f);

  MapReduce<float> sumSq("float sq(float x) { return x * x; }",
                         "float add2(float x, float y) { return x + y; }");
  EXPECT_FLOAT_EQ(sumSq(empty).getValue(), 0.0f);

  Scan<float> prefix("float add3(float x, float y) { return x + y; }");
  EXPECT_EQ(prefix(empty).size(), 0u);

  Vector<float> empty2;
  empty2.setDistribution(Distribution::Copy);
  Zip<float> mul("float mul(float x, float y) { return x * y; }");
  EXPECT_EQ(mul(empty, empty2).size(), 0u);

  empty.setDistribution(Distribution::Copy);
  empty.setDistribution(Distribution::Single);
  empty.setDistribution(Distribution::Block);

  const trace::Trace trace = trace::Recorder::instance().stop();
  EXPECT_TRUE(trace.commands.empty())
      << trace.commands.size() << " device command(s) for empty vectors";
}

TEST_F(HeteroTest, TinyVectorsNeverEnqueueZeroLengthCommands) {
  initPlatform("t10*3,t10@0.5x");
  Map<int> inc("int inc_t(int x) { return x + 1; }");
  Reduce<int> sum("int add(int x, int y) { return x + y; }");
  Scan<int> prefix("int add2(int x, int y) { return x + y; }");

  trace::Recorder::instance().start();
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    std::vector<int> data(n, 7);
    Vector<int> v(data);
    v.setDistribution(Distribution::Block); // fewer elements than devices
    Vector<int> out = inc(v);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], 8) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(sum(v).getValue(), int(7 * n)) << "n=" << n;
    Vector<int> scanned = prefix(v); // exclusive prefix sum
    ASSERT_EQ(scanned.size(), n);
    EXPECT_EQ(scanned[n - 1], int(7 * (n - 1))) << "n=" << n;
  }
  const trace::Trace trace = trace::Recorder::instance().stop();
  for (const trace::CommandRecord& c : trace.commands) {
    if (c.kind != trace::CommandKind::Kernel) {
      EXPECT_GT(c.bytes, 0u)
          << "zero-length " << trace::commandKindLabel(c.kind)
          << " on device " << c.device;
    }
  }
}

// ---------------------------------------------------------------------
// Fault injection and schedule fuzzing on heterogeneous machines.
// ---------------------------------------------------------------------

TEST_F(HeteroTest, FaultPlanReplaysUnderHeterogeneousSpec) {
  initPlatform("t10,t10@0.5x,cpu");
  Map<int> twice("int twice_h(int x) { return 2 * x; }");
  std::vector<int> data(512);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);

  ocl::FaultInjector::instance().configure("write@1");
  EXPECT_THROW({ Vector<int> out = twice(input); }, ocl::TransferFailure);
  ocl::FaultInjector::instance().reset();

  // Host data survived; the retry over the weighted split is correct.
  Vector<int> out = twice(input);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(out[i], 2 * int(i)) << i;
  }
}

TEST_F(HeteroTest, SchedulesAreOutputInvariantOnSkewedPlatform) {
  // Mirrors the schedule-fuzzing suite on a heterogeneous machine: the
  // weighted chunks differ per device, but every legal schedule of the
  // same command DAG must produce bit-identical results.
  auto run = [this] {
    initPlatform("t10*2,t10@0.5x");
    std::vector<float> a(3001), b(3001);
    std::iota(a.begin(), a.end(), 1.0f);
    std::iota(b.begin(), b.end(), 0.5f);
    Vector<float> va(a), vb(b);
    va.setDistribution(Distribution::Block);
    Zip<float> mul("float mul_s(float x, float y) { return x * y; }");
    Reduce<float> sum("float add_s(float x, float y) { return x + y; }");
    Vector<float> prod = mul(va, vb);
    const float dot = sum(prod).getValue();
    std::vector<float> host(prod.size());
    for (std::size_t i = 0; i < prod.size(); ++i) {
      host[i] = prod[i];
    }
    skelcl::terminate();
    return std::make_pair(dot, host);
  };

  ::unsetenv("SKELCL_SCHEDULE_SEED");
  const auto baseline = run();
  for (int seed : {1, 2, 3}) {
    ::setenv("SKELCL_SCHEDULE_SEED", std::to_string(seed).c_str(), 1);
    const auto fuzzed = run();
    EXPECT_EQ(baseline.first, fuzzed.first) << "seed " << seed;
    EXPECT_EQ(baseline.second, fuzzed.second) << "seed " << seed;
  }
}

} // namespace
