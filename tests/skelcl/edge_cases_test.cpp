// Edge cases and failure injection across the SkelCL stack: vectors
// smaller than the device count, zero-length chunks, user-kernel faults
// surfacing through skeleton calls, and error recovery.
#include "skelcl_test_util.h"

namespace {

using skelcl::Distribution;
using skelcl::Vector;
using skelcl_test::SkelclFixture;

class EdgeCases : public SkelclFixture {
protected:
  EdgeCases() : SkelclFixture(4) {}
};

TEST_F(EdgeCases, BlockDistributionSmallerThanDeviceCount) {
  // 2 elements over 4 devices: two devices get empty chunks.
  Vector<int> v(std::vector<int>{10, 20});
  v.setDistribution(Distribution::Block);
  skelcl::Map<int> inc("int f(int x) { return x + 1; }");
  Vector<int> out = inc(v);
  EXPECT_EQ(out[0], 11);
  EXPECT_EQ(out[1], 21);
}

TEST_F(EdgeCases, ReduceSmallerThanDeviceCount) {
  Vector<int> v(std::vector<int>{5, 7, 11});
  v.setDistribution(Distribution::Block);
  skelcl::Reduce<int> sum("int s(int a, int b) { return a + b; }");
  EXPECT_EQ(sum(v).getValue(), 23);
}

TEST_F(EdgeCases, ZipSmallerThanDeviceCount) {
  Vector<int> a(std::vector<int>{1, 2});
  Vector<int> b(std::vector<int>{10, 20});
  a.setDistribution(Distribution::Block);
  skelcl::Zip<int> add("int z(int x, int y) { return x + y; }");
  Vector<int> out = add(a, b);
  EXPECT_EQ(out[0], 11);
  EXPECT_EQ(out[1], 22);
}

TEST_F(EdgeCases, SingleElementVectorAcrossFourDevices) {
  Vector<float> v(std::vector<float>{2.5f});
  v.setDistribution(Distribution::Block);
  skelcl::Map<float> dbl("float d(float x) { return 2.0f * x; }");
  EXPECT_FLOAT_EQ(dbl(v)[0], 5.0f);
}

TEST_F(EdgeCases, CombineRedistributionWithEmptyChunks) {
  Vector<int> v(3, 1);
  v.setDistribution(Distribution::Copy);
  v.state().ensureOnDevices();
  v.dataOnDevicesModified();
  v.setDistribution(Distribution::Block,
                    "int add(int a, int b) { return a + b; }");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(v[i], 4); // 4 copies of 1 summed
  }
}

TEST_F(EdgeCases, KernelTrapSurfacesThroughSkeletonCall) {
  // The user function indexes out of bounds; the VM trap must propagate
  // as an exception from the skeleton call, not corrupt memory.
  skelcl::Map<int> broken(
      "int f(int x, __global const int* table) { return table[x]; }");
  Vector<int> input(std::vector<int>{1000000});
  Vector<int> table(std::vector<int>{1, 2, 3});
  skelcl::Arguments args;
  args.push(table);
  EXPECT_THROW(broken(input, args), clc::TrapError);
}

TEST_F(EdgeCases, DivisionByZeroInUserFunctionTraps) {
  skelcl::Map<int> div("int f(int x) { return 100 / x; }");
  Vector<int> zeros(std::vector<int>{5, 0, 2});
  // Lazy invocation: the trap fires when the result is read.
  EXPECT_THROW(div(zeros)[0], clc::TrapError);
}

TEST_F(EdgeCases, SkeletonUsableAfterFailedCall) {
  skelcl::Map<int> div("int f(int x) { return 100 / x; }");
  Vector<int> bad(std::vector<int>{0});
  EXPECT_THROW(div(bad)[0], clc::TrapError);
  // The same skeleton instance keeps working with good input.
  Vector<int> good(std::vector<int>{4});
  EXPECT_EQ(div(good)[0], 25);
}

TEST_F(EdgeCases, BuildErrorIdentifiesTheUserFunction) {
  skelcl::Map<float> typo("float f(float x) { return sqrrt(x); }");
  Vector<float> input(std::vector<float>{1.0f});
  try {
    (void)typo(input)[0];
    FAIL() << "expected BuildError";
  } catch (const ocl::BuildError& e) {
    EXPECT_NE(e.log().find("sqrrt"), std::string::npos) << e.log();
  }
}

TEST_F(EdgeCases, MalformedUserSourceFails) {
  // No function definition at all: rejected at construction.
  EXPECT_THROW(skelcl::Map<float> noFn("int x = 3;"),
               common::InvalidArgument);
  // Unterminated body: the name is extractable, so the error surfaces
  // at first use as a build failure (like a real OpenCL driver).
  skelcl::Map<float> bad("float f(float x) {");
  Vector<float> input(std::vector<float>{1.0f});
  EXPECT_THROW(bad(input)[0], ocl::BuildError);
}

TEST_F(EdgeCases, LargeStructElements) {
  struct Big {
    float values[16];
  };
  skelcl::registerType<Big>(
      "Big", "typedef struct { float values[16]; } Big;");
  skelcl::Map<Big, float> sumFields(
      "float s(Big b) {"
      "  float acc = 0.0f;"
      "  for (int i = 0; i < 16; ++i) acc += b.values[i];"
      "  return acc;"
      "}");
  std::vector<Big> data(10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int k = 0; k < 16; ++k) {
      data[i].values[k] = float(i);
    }
  }
  Vector<Big> input(data);
  input.setDistribution(Distribution::Block);
  Vector<float> out = sumFields(input);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], 16.0f * float(i)) << i;
  }
}

TEST_F(EdgeCases, ManySmallSkeletonCallsReuseCompiledProgram) {
  skelcl::Map<int> inc("int f(int x) { return x + 1; }");
  skelcl::detail::StatsScope scope;
  Vector<int> v(std::vector<int>{1});
  for (int i = 0; i < 50; ++i) {
    v = inc(v);
  }
  EXPECT_EQ(v[0], 51);
  // Fusion chops the 50-deep chain into max-depth fused programs plus
  // one shorter remainder, so at most two distinct programs get built;
  // the program memo serves every repeat without touching the cache.
  const auto cache = scope.cacheDelta();
  EXPECT_LE(cache.hits + cache.misses, 2u);
}

TEST_F(EdgeCases, ScanOfEmptyVectorIsEmpty) {
  skelcl::Scan<int> scan("int s(int a, int b) { return a + b; }", "0");
  Vector<int> empty;
  Vector<int> out = scan(empty);
  EXPECT_EQ(out.size(), 0u);
}

} // namespace
