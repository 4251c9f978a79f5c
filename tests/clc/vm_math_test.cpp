// Builtin math/integer semantics and numeric edge cases of the VM.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "clc_test_util.h"

using namespace clc_test;

namespace {

/// Runs a one-item kernel that writes a single float result to out[0].
float evalF(const std::string& body, float x = 0.0f, float y = 0.0f) {
  const auto program = clc::compile(
      "__kernel void k(__global float* out, float x, float y) { out[0] = " +
      body + "; }");
  std::vector<float> out(1, -12345.0f);
  Buffers bufs;
  auto a = bufs.add(out);
  run1D(program, "k", 1, 1, {a, scalarArg(x), scalarArg(y)}, bufs);
  return out[0];
}

int evalI(const std::string& body, int x = 0, int y = 0) {
  const auto program = clc::compile(
      "__kernel void k(__global int* out, int x, int y) { out[0] = " + body +
      "; }");
  std::vector<int> out(1, -12345);
  Buffers bufs;
  auto a = bufs.add(out);
  run1D(program, "k", 1, 1, {a, scalarArg(x), scalarArg(y)}, bufs);
  return out[0];
}

TEST(VmMath, UnaryFloatBuiltins) {
  EXPECT_FLOAT_EQ(evalF("sqrt(x)", 9.0f), 3.0f);
  EXPECT_FLOAT_EQ(evalF("rsqrt(x)", 4.0f), 0.5f);
  EXPECT_FLOAT_EQ(evalF("sin(x)", 0.0f), 0.0f);
  EXPECT_NEAR(evalF("cos(x)", 0.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(evalF("exp(x)", 1.0f), std::exp(1.0f), 1e-5f);
  EXPECT_NEAR(evalF("log(x)", std::exp(2.0f)), 2.0f, 1e-5f);
  EXPECT_FLOAT_EQ(evalF("fabs(x)", -3.5f), 3.5f);
  EXPECT_FLOAT_EQ(evalF("floor(x)", 2.7f), 2.0f);
  EXPECT_FLOAT_EQ(evalF("ceil(x)", 2.2f), 3.0f);
  EXPECT_FLOAT_EQ(evalF("trunc(x)", -2.7f), -2.0f);
  EXPECT_FLOAT_EQ(evalF("round(x)", 2.5f), 3.0f);
}

TEST(VmMath, BinaryFloatBuiltins) {
  EXPECT_FLOAT_EQ(evalF("pow(x, y)", 2.0f, 10.0f), 1024.0f);
  EXPECT_FLOAT_EQ(evalF("fmin(x, y)", 1.0f, 2.0f), 1.0f);
  EXPECT_FLOAT_EQ(evalF("fmax(x, y)", 1.0f, 2.0f), 2.0f);
  EXPECT_FLOAT_EQ(evalF("fmod(x, y)", 7.5f, 2.0f), 1.5f);
  EXPECT_FLOAT_EQ(evalF("hypot(x, y)", 3.0f, 4.0f), 5.0f);
  EXPECT_FLOAT_EQ(evalF("copysign(x, y)", 3.0f, -1.0f), -3.0f);
  EXPECT_NEAR(evalF("atan2(x, y)", 1.0f, 1.0f), float(M_PI / 4), 1e-6f);
}

TEST(VmMath, TernaryFloatBuiltins) {
  EXPECT_FLOAT_EQ(evalF("mad(x, y, 1.0f)", 2.0f, 3.0f), 7.0f);
  EXPECT_FLOAT_EQ(evalF("fma(x, y, 1.0f)", 2.0f, 3.0f), 7.0f);
  EXPECT_FLOAT_EQ(evalF("clamp(x, 0.0f, 1.0f)", 1.5f), 1.0f);
  EXPECT_FLOAT_EQ(evalF("clamp(x, 0.0f, 1.0f)", -0.5f), 0.0f);
  EXPECT_FLOAT_EQ(evalF("mix(x, y, 0.25f)", 0.0f, 8.0f), 2.0f);
}

TEST(VmMath, MinMaxAbsIntegers) {
  EXPECT_EQ(evalI("min(x, y)", -3, 5), -3);
  EXPECT_EQ(evalI("max(x, y)", -3, 5), 5);
  EXPECT_EQ(evalI("abs(x)", -7), 7);
  EXPECT_EQ(evalI("clamp(x, 0, 10)", 42), 10);
  EXPECT_EQ(evalI("clamp(x, 0, 10)", -42), 0);
}

/// Runs a one-item kernel that writes abs(x) for a long x to out[0].
std::int64_t absL(std::int64_t x) {
  const auto program = clc::compile(
      "__kernel void k(__global long* out, long x) { out[0] = abs(x); }");
  std::vector<std::int64_t> out(1, -12345);
  Buffers bufs;
  auto a = bufs.add(out);
  run1D(program, "k", 1, 1, {a, scalarArg(x)}, bufs);
  return out[0];
}

TEST(VmMath, AbsOfMostNegativeKeepsItsBits) {
  // abs(LONG_MIN) and abs(INT_MIN) have no positive value; the result is
  // the operand's own bits, as in two's-complement hardware.
  constexpr auto kLongMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kIntMin = std::numeric_limits<std::int32_t>::min();
  EXPECT_EQ(absL(kLongMin), kLongMin);
  EXPECT_EQ(evalI("abs(x)", kIntMin), kIntMin);
  EXPECT_EQ(absL(kLongMin + 1), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(absL(-5000000000LL), 5000000000LL);
  EXPECT_EQ(absL(42), 42);
  EXPECT_EQ(absL(0), 0);
  EXPECT_EQ(evalI("abs(x)", kIntMin + 1), std::numeric_limits<int>::max());
  EXPECT_EQ(evalI("abs(x)", 0), 0);
  EXPECT_EQ(evalI("abs(x)", 9), 9);
}

TEST(VmMath, MinIsUnsignedWhenOperandsAre) {
  // (uint)-1 is huge, so unsigned min picks 5.
  EXPECT_EQ(evalI("(int)min((uint)x, (uint)y)", -1, 5), 5);
  // Signed min of the same bits picks -1.
  EXPECT_EQ(evalI("min(x, y)", -1, 5), -1);
}

TEST(VmMath, ReinterpretBuiltins) {
  EXPECT_EQ(evalI("as_int(x)", 0) /* x = 0.0f */, 0);
  const float one = 1.0f;
  std::uint32_t oneBits;
  std::memcpy(&oneBits, &one, 4);
  EXPECT_EQ(std::uint32_t(evalI("as_int(x)", 0, 0) + 0), 0u);
  EXPECT_FLOAT_EQ(evalF("as_float(x)", 0, 0), 0.0f);
  // Round-trip: as_float(as_int(v)) == v
  EXPECT_FLOAT_EQ(evalF("as_float(as_int(x))", 3.25f), 3.25f);
}

TEST(VmMath, ConvertBuiltins) {
  EXPECT_EQ(evalI("convert_int(x)", 0, 0), 0);
  EXPECT_FLOAT_EQ(evalF("convert_float(7)"), 7.0f);
  EXPECT_EQ(evalI("(int)convert_uint(7)"), 7);
}

TEST(VmMath, IntegerDivisionSemantics) {
  EXPECT_EQ(evalI("x / y", 7, 2), 3);
  EXPECT_EQ(evalI("x / y", -7, 2), -3); // truncation toward zero
  EXPECT_EQ(evalI("x % y", 7, 2), 1);
  EXPECT_EQ(evalI("x % y", -7, 2), -1);
}

TEST(VmMath, DivisionByZeroTraps) {
  EXPECT_THROW(evalI("x / y", 1, 0), clc::TrapError);
  EXPECT_THROW(evalI("x % y", 1, 0), clc::TrapError);
}

TEST(VmMath, IntMinDividedByMinusOneWraps) {
  EXPECT_EQ(evalI("x / y", std::numeric_limits<int>::min(), -1),
            std::numeric_limits<int>::min());
  EXPECT_EQ(evalI("x % y", std::numeric_limits<int>::min(), -1), 0);
}

TEST(VmMath, ShiftCountsAreMasked) {
  EXPECT_EQ(evalI("x << y", 1, 33), 2);  // 33 & 31 == 1
  EXPECT_EQ(evalI("x >> y", 16, 36), 1); // 36 & 31 == 4
}

TEST(VmMath, SignedShiftRightIsArithmetic) {
  EXPECT_EQ(evalI("x >> y", -8, 1), -4);
  EXPECT_EQ(evalI("(int)((uint)x >> y)", -8, 1), 0x7ffffffc);
}

TEST(VmMath, UnsignedOverflowWraps) {
  EXPECT_EQ(evalI("(int)((uint)x + (uint)y)", -1, 1), 0);
  // 0x80000001 * 2 wraps to 2 in 32 bits.
  EXPECT_EQ(evalI("(int)((uint)x * 2u)",
                  std::numeric_limits<int>::min() | 1),
            2);
}

TEST(VmMath, FloatSpecialValues) {
  EXPECT_TRUE(std::isinf(evalF("x / y", 1.0f, 0.0f)));
  EXPECT_TRUE(std::isnan(evalF("x / y", 0.0f, 0.0f)));
  EXPECT_TRUE(std::isinf(evalF("INFINITY")));
  EXPECT_TRUE(std::isnan(evalF("NAN")));
  EXPECT_FLOAT_EQ(evalF("FLT_MAX"), std::numeric_limits<float>::max());
}

TEST(VmMath, NanComparesFalse) {
  // 0.0f/0.0f is NaN; every ordered comparison with NaN is false.
  EXPECT_EQ(evalI("(0.0f / 0.0f) < 1.0f ? 1 : 0"), 0);
  EXPECT_EQ(evalI("(0.0f / 0.0f) == (0.0f / 0.0f) ? 1 : 0"), 0);
  EXPECT_EQ(evalI("(0.0f / 0.0f) != (0.0f / 0.0f) ? 1 : 0"), 1);
}

TEST(VmMath, FloatToIntConversionClampsInsteadOfUB) {
  EXPECT_EQ(evalI("(int)x", 0, 0), 0);
  EXPECT_EQ(evalI("(int)(x * 1e20f)", 1000000, 0),
            std::numeric_limits<int>::max());
  EXPECT_EQ(evalI("(int)(x * 1e20f)", -1000000, 0),
            std::numeric_limits<int>::min());
  EXPECT_EQ(evalI("(int)(0.0f / 0.0f)"), 0); // NaN -> 0
}

TEST(VmMath, NarrowingIntegerCasts) {
  EXPECT_EQ(evalI("(int)(char)x", 0x1ff), -1);
  EXPECT_EQ(evalI("(int)(uchar)x", 0x1ff), 0xff);
  EXPECT_EQ(evalI("(int)(short)x", 0x1ffff), -1);
  EXPECT_EQ(evalI("(int)(ushort)x", 0x1ffff), 0xffff);
}

TEST(VmMath, DoublePrecisionPath) {
  const auto program = clc::compile(R"(
    __kernel void k(__global double* out, double x) {
      out[0] = sqrt(x);
      out[1] = x / 3.0;
      out[2] = (double)(float)x; // round-trip through float
    }
  )");
  std::vector<double> out(3);
  Buffers bufs;
  auto a = bufs.add(out);
  run1D(program, "k", 1, 1, {a, scalarArg(2.0)}, bufs);
  EXPECT_DOUBLE_EQ(out[0], std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(out[1], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(out[2], double(float(2.0)));
}

TEST(VmMath, MandelbrotIterationMatchesHost) {
  // The exact loop the Mandelbrot application uses, checked against a host
  // implementation in float precision.
  const auto program = clc::compile(R"(
    __kernel void iters(__global int* out, float cx, float cy, int maxIter) {
      float zx = 0.0f, zy = 0.0f;
      int n = 0;
      while (zx * zx + zy * zy <= 4.0f && n < maxIter) {
        float t = zx * zx - zy * zy + cx;
        zy = 2.0f * zx * zy + cy;
        zx = t;
        n = n + 1;
      }
      out[get_global_id(0)] = n;
    }
  )");
  const auto host = [](float cx, float cy, int maxIter) {
    float zx = 0, zy = 0;
    int n = 0;
    while (zx * zx + zy * zy <= 4.0f && n < maxIter) {
      const float t = zx * zx - zy * zy + cx;
      zy = 2.0f * zx * zy + cy;
      zx = t;
      ++n;
    }
    return n;
  };
  for (const auto& [cx, cy] : std::initializer_list<std::pair<float, float>>{
           {0.0f, 0.0f}, {-1.0f, 0.3f}, {0.3f, 0.5f}, {-0.75f, 0.1f}}) {
    std::vector<int> out(1);
    Buffers bufs;
    auto a = bufs.add(out);
    run1D(program, "iters", 1, 1,
          {a, scalarArg(cx), scalarArg(cy), scalarArg(64)}, bufs);
    EXPECT_EQ(out[0], host(cx, cy, 64)) << cx << "," << cy;
  }
}

} // namespace
