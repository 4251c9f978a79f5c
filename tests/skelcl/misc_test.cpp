// Remaining coverage: Scan operator variants, Arguments misuse, Scalar
// conversions, and skeleton interactions with the virtual clock.
#include <cmath>
#include <cstring>

#include "common/prng.h"
#include "skelcl_test_util.h"

namespace {

using skelcl::Arguments;
using skelcl::Vector;
using skelcl_test::SkelclFixture;

class MiscTest : public SkelclFixture {
protected:
  MiscTest() : SkelclFixture(2) {}
};

TEST_F(MiscTest, ScanWithMaxOperatorAndNegativeInfinityIdentity) {
  skelcl::Scan<float> scanMax(
      "float m(float a, float b) { return fmax(a, b); }", "-INFINITY");
  Vector<float> input(std::vector<float>{3.0f, -1.0f, 7.0f, 2.0f, 9.0f});
  Vector<float> out = scanMax(input);
  EXPECT_TRUE(std::isinf(out[0]) && out[0] < 0);
  EXPECT_FLOAT_EQ(out[1], 3.0f);
  EXPECT_FLOAT_EQ(out[2], 3.0f);
  EXPECT_FLOAT_EQ(out[3], 7.0f);
  EXPECT_FLOAT_EQ(out[4], 7.0f);
}

TEST_F(MiscTest, ScanRightProjectionShiftsByOne) {
  // Non-commutative associative operator: scan with right projection
  // yields the input shifted right by one (out[i] = x[i-1]). This case
  // caught a real operand-order bug in the Blelloch down-sweep.
  skelcl::Scan<int> shift("int pick(int a, int b) { return b; }", "-1");
  Vector<int> input(std::vector<int>{10, 20, 30, 40});
  Vector<int> out = shift(input);
  EXPECT_EQ(out[0], -1);
  EXPECT_EQ(out[1], 10);
  EXPECT_EQ(out[2], 20);
  EXPECT_EQ(out[3], 30);
}

TEST_F(MiscTest, ScanNonCommutativeMonoidAcrossBlockBoundaries) {
  // A genuine non-commutative *monoid* (the paper requires an identity
  // element): affine maps x -> a*x + b over Z/2^16, packed as
  // (a << 16) | b, composed left-to-right. Identity is (1, 0).
  // (Right-projection, used in the single-block test above, has no
  // right identity and is out of contract for the multi-block path.)
  const char* compose =
      "int comp(int f, int g) {"
      "  int fa = (f >> 16) & 0xffff; int fb = f & 0xffff;"
      "  int ga = (g >> 16) & 0xffff; int gb = g & 0xffff;"
      "  int a = (fa * ga) & 0xffff;"
      "  int b = (fa * gb + fb) & 0xffff;"
      "  return (a << 16) | b;"
      "}";
  skelcl::Scan<int> scan(compose, "0x10000");
  const std::size_t n = 1000; // several 256-element blocks
  common::Xoshiro256 rng(12);
  std::vector<int> data(n);
  for (auto& v : data) {
    v = int(((rng.nextBelow(7) + 1) << 16) | rng.nextBelow(1 << 16));
  }
  Vector<int> input(data);
  Vector<int> out = scan(input);

  // The oracle composes in uint32_t: the products overflow a signed int,
  // and the expected values are the same bits reinterpreted.
  const auto comp = [](std::uint32_t f, std::uint32_t g) {
    const std::uint32_t fa = (f >> 16) & 0xffff, fb = f & 0xffff;
    const std::uint32_t ga = (g >> 16) & 0xffff, gb = g & 0xffff;
    return (((fa * ga) & 0xffff) << 16) | ((fa * gb + fb) & 0xffff);
  };
  std::uint32_t acc = 0x10000;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::uint32_t(out[i]), acc) << i;
    acc = comp(acc, std::uint32_t(data[i]));
  }
}

TEST_F(MiscTest, ArgumentsMismatchFailsKernelBuildOrBinding) {
  // The user function takes one extra argument but two are pushed: the
  // generated kernel then calls f with the wrong arity -> build error.
  skelcl::Map<float> f(
      "float f(float x, float a) { return x * a; }");
  Vector<float> input(std::vector<float>{1.0f});
  Arguments tooMany;
  tooMany.push(1.0f);
  tooMany.push(2.0f);
  // Lazy invocation: the build happens when the result is read.
  EXPECT_THROW(f(input, tooMany)[0], ocl::BuildError);
  Arguments tooFew;
  EXPECT_THROW(f(input, tooFew)[0], ocl::BuildError);
}

TEST_F(MiscTest, MultipleVectorArgumentsInOnePush) {
  skelcl::Map<int> combine(
      "int c(int i, __global const int* a, __global const int* b) {"
      " return a[i] + b[i]; }");
  Vector<int> idx(std::vector<int>{0, 1, 2});
  Vector<int> a(std::vector<int>{1, 2, 3});
  Vector<int> b(std::vector<int>{10, 20, 30});
  Arguments args;
  args.push(a);
  args.push(b);
  Vector<int> out = combine(idx, args);
  EXPECT_EQ(out[0], 11);
  EXPECT_EQ(out[1], 22);
  EXPECT_EQ(out[2], 33);
}

TEST_F(MiscTest, ArgumentsCarryEveryBuiltinScalarType) {
  // One Arguments object with a value of each builtin scalar type, bound
  // on both GPUs; element i returns argument i, floats as exact bits (the
  // double scaled by 2^51, which leaves pi's 53-bit mantissa an integer).
  skelcl::Map<int, long> pick(
      "long pick(int i, char a, uchar b, short c, ushort d, int e, uint f,"
      " long g, ulong h, float x, double y) {"
      " if (i == 0) return a; if (i == 1) return b;"
      " if (i == 2) return c; if (i == 3) return d;"
      " if (i == 4) return e; if (i == 5) return f;"
      " if (i == 6) return g; if (i == 7) return (long)h;"
      " if (i == 8) return as_uint(x);"
      " return (long)(y * 2251799813685248.0); }");
  const std::int64_t minusTwo53Minus1 = -(std::int64_t(1) << 53) - 1;
  const std::uint64_t two63Plus1 = (std::uint64_t(1) << 63) + 1;
  const double pi = 3.14159265358979323846;
  Arguments args;
  args.push(std::int8_t(-3));
  args.push(std::uint8_t(250));
  args.push(std::int16_t(-300));
  args.push(std::uint16_t(65000));
  args.push(std::int32_t(-70000));
  args.push(std::uint32_t(4000000000u));
  args.push(minusTwo53Minus1);
  args.push(two63Plus1);
  args.push(-1.25f);
  args.push(pi);
  std::vector<int> idx(20);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = int(i % 10);
  }
  Vector<int> input(idx);
  input.setDistribution(skelcl::Distribution::Block);
  Vector<long> out = pick(input, args);
  std::uint32_t floatBits;
  const float minusOneQuarter = -1.25f;
  std::memcpy(&floatBits, &minusOneQuarter, 4);
  const std::vector<long> expected = {
      -3, 250, -300, 65000, -70000, 4000000000L, minusTwo53Minus1,
      long(two63Plus1), long(floatBits), long(pi * 2251799813685248.0)};
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(out[i], expected[i % 10]) << "element " << i;
  }
}

TEST_F(MiscTest, ScalarImplicitConversion) {
  skelcl::Reduce<int> sum("int s(int a, int b) { return a + b; }");
  Vector<int> v(std::vector<int>{1, 2, 3});
  const int total = sum(v); // operator T()
  EXPECT_EQ(total, 6);
}

TEST_F(MiscTest, VirtualClockAdvancesMonotonically) {
  const auto t0 = ocl::hostTimeNs();
  skelcl::Map<float> f("float f(float x) { return x + 1.0f; }");
  Vector<float> v(std::vector<float>(1 << 14, 0.0f));
  Vector<float> out = f(v);
  out.state().ensureOnHost();
  const auto t1 = ocl::hostTimeNs();
  EXPECT_GT(t1, t0);
  (void)out.hostData();
  EXPECT_EQ(ocl::hostTimeNs(), t1) << "reading synced data costs nothing";
}

TEST_F(MiscTest, DeviceCountReflectsInit) {
  EXPECT_EQ(skelcl::deviceCount(), 2u);
  skelcl::terminate();
  EXPECT_THROW(skelcl::deviceCount(), common::Error);
  skelcl::init(skelcl::DeviceSelection::nGPUs(1));
  EXPECT_EQ(skelcl::deviceCount(), 1u);
  skelcl::init(skelcl::DeviceSelection::nGPUs(2)); // re-init for TearDown
}

TEST_F(MiscTest, InitMoreGpusThanAvailableThrows) {
  EXPECT_THROW(skelcl::init(skelcl::DeviceSelection::nGPUs(64)),
               common::InvalidArgument);
  skelcl::init(skelcl::DeviceSelection::nGPUs(2));
}

TEST_F(MiscTest, TypeNamesForBuiltins) {
  EXPECT_EQ(skelcl::typeName<float>(), "float");
  EXPECT_EQ(skelcl::typeName<double>(), "double");
  EXPECT_EQ(skelcl::typeName<int>(), "int");
  EXPECT_EQ(skelcl::typeName<unsigned>(), "uint");
  EXPECT_EQ(skelcl::typeName<long long>(), "long");
  EXPECT_EQ(skelcl::typeName<std::size_t>(), "ulong");
  EXPECT_EQ(skelcl::typeName<std::uint8_t>(), "uchar");
}

TEST_F(MiscTest, ZipChainImplementsVariadicMap) {
  // Paper Sec. III-B: "By chaining Zip skeletons, variadic forms of Map
  // can be implemented."
  skelcl::Zip<float> add("float a(float x, float y) { return x + y; }");
  skelcl::Zip<float> mul("float m(float x, float y) { return x * y; }");
  Vector<float> a(std::vector<float>{1, 2, 3});
  Vector<float> b(std::vector<float>{4, 5, 6});
  Vector<float> c(std::vector<float>{2, 2, 2});
  // (a + b) * c, fully on-device.
  Vector<float> out = mul(add(a, b), c);
  EXPECT_FLOAT_EQ(out[0], 10.0f);
  EXPECT_FLOAT_EQ(out[1], 14.0f);
  EXPECT_FLOAT_EQ(out[2], 18.0f);
}

} // namespace
