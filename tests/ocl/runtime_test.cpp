// Tests for the simulated OpenCL host runtime: discovery, buffers,
// programs/kernels, queues, events.
#include <gtest/gtest.h>

#include <numeric>

#include "clc/serialize.h"
#include "ocl/ocl.h"

namespace {

class OclRuntime : public ::testing::Test {
protected:
  void SetUp() override {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(4));
  }
};

TEST_F(OclRuntime, PlatformDiscovery) {
  const auto platforms = ocl::getPlatforms();
  ASSERT_EQ(platforms.size(), 1u);
  EXPECT_EQ(platforms[0].devices(ocl::DeviceType::GPU).size(), 4u);
  EXPECT_EQ(platforms[0].devices(ocl::DeviceType::CPU).size(), 1u);
  EXPECT_EQ(platforms[0].devices().size(), 5u);
}

TEST_F(OclRuntime, DeviceSpecsMatchPaperTestbed) {
  const auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  const auto& spec = gpus[0].spec();
  EXPECT_EQ(spec.computeUnits * spec.pesPerUnit, 240u); // 240 SP cores
  EXPECT_DOUBLE_EQ(spec.clockGHz, 1.44);
  EXPECT_EQ(spec.globalMemBytes, 4ull << 30);
  EXPECT_DOUBLE_EQ(spec.memBandwidthGBs, 102.0);
}

TEST_F(OclRuntime, BufferAllocationTracking) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  EXPECT_EQ(gpus[0].state().allocatedBytes(), 0u);
  {
    ocl::Buffer b = ctx.createBuffer(gpus[0], 1024);
    EXPECT_EQ(gpus[0].state().allocatedBytes(), 1024u);
    EXPECT_EQ(b.size(), 1024u);
  }
  EXPECT_EQ(gpus[0].state().allocatedBytes(), 0u); // released
}

TEST_F(OclRuntime, OutOfMemoryThrows) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  EXPECT_THROW(ctx.createBuffer(gpus[0], 5ull << 30), common::Error);
}

TEST_F(OclRuntime, HostUnallocatableRequestThrowsTypedError) {
  // Far beyond both device capacity and host memory: the capacity check
  // must reject it before any host allocation is attempted.
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  EXPECT_THROW(ctx.createBuffer(gpus[0], 1ull << 50), common::Error);
  EXPECT_EQ(gpus[0].state().allocatedBytes(), 0u);
  // A size that wraps the accounted total past zero is rejected too.
  ocl::Buffer held = ctx.createBuffer(gpus[0], 1024);
  EXPECT_THROW(ctx.createBuffer(gpus[0], ~std::size_t(0) - 511),
               common::Error);
  EXPECT_EQ(gpus[0].state().allocatedBytes(), 1024u);
}

TEST_F(OclRuntime, WriteReadRoundTrip) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::CommandQueue queue(gpus[0]);
  std::vector<int> in(256), out(256);
  std::iota(in.begin(), in.end(), 7);
  ocl::Buffer buf = ctx.createBuffer(gpus[0], in.size() * sizeof(int));
  queue.enqueueWriteBuffer(buf, 0, in.size() * sizeof(int), in.data());
  queue.enqueueReadBuffer(buf, 0, in.size() * sizeof(int), out.data());
  EXPECT_EQ(in, out);
}

TEST_F(OclRuntime, PartialWritesWithOffset) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::CommandQueue queue(gpus[0]);
  ocl::Buffer buf = ctx.createBuffer(gpus[0], 8 * sizeof(int));
  std::vector<int> zeros(8, 0), ones(4, 1), out(8);
  queue.enqueueWriteBuffer(buf, 0, 8 * sizeof(int), zeros.data());
  queue.enqueueWriteBuffer(buf, 4 * sizeof(int), 4 * sizeof(int),
                           ones.data());
  queue.enqueueReadBuffer(buf, 0, 8 * sizeof(int), out.data());
  EXPECT_EQ(out, (std::vector<int>{0, 0, 0, 0, 1, 1, 1, 1}));
}

TEST_F(OclRuntime, OutOfRangeTransfersRejected) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::CommandQueue queue(gpus[0]);
  ocl::Buffer buf = ctx.createBuffer(gpus[0], 16);
  char data[32] = {};
  EXPECT_THROW(queue.enqueueWriteBuffer(buf, 0, 32, data),
               common::InvalidArgument);
  EXPECT_THROW(queue.enqueueReadBuffer(buf, 8, 16, data),
               common::InvalidArgument);
}

TEST_F(OclRuntime, ProgramBuildAndKernelRun) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::CommandQueue queue(gpus[0]);
  ocl::Program program = ctx.createProgram(R"(
    __kernel void twice(__global int* data, uint n) {
      size_t i = get_global_id(0);
      if (i < n) data[i] = data[i] * 2;
    }
  )");
  program.build();
  EXPECT_TRUE(program.isBuilt());
  EXPECT_EQ(program.kernelNames(), std::vector<std::string>{"twice"});

  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  ocl::Buffer buf = ctx.createBuffer(gpus[0], data.size() * sizeof(int));
  queue.enqueueWriteBuffer(buf, 0, data.size() * sizeof(int), data.data());

  ocl::Kernel kernel = program.createKernel("twice");
  kernel.setArg(0, buf);
  kernel.setArg(1, std::uint32_t(100));
  queue.enqueueNDRange(kernel, ocl::NDRange1D{128, 32});
  queue.enqueueReadBuffer(buf, 0, data.size() * sizeof(int), data.data());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(data[std::size_t(i)], 2 * i);
  }
}

TEST_F(OclRuntime, BuildErrorCarriesLogWithLocation) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::Program program =
      ctx.createProgram("__kernel void k() { undeclared += 1; }");
  try {
    program.build();
    FAIL() << "expected BuildError";
  } catch (const ocl::BuildError& e) {
    EXPECT_NE(e.log().find("undeclared"), std::string::npos) << e.log();
    EXPECT_NE(e.log().find("^"), std::string::npos) << e.log();
  }
}

TEST_F(OclRuntime, BinaryRoundTripThroughProgram) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::Program program = ctx.createProgram(
      "__kernel void k(__global int* d) { d[get_global_id(0)] = 9; }");
  program.build();
  ocl::Program loaded = ctx.createProgramFromBinary(program.binary());
  EXPECT_TRUE(loaded.isBuilt());

  ocl::CommandQueue queue(gpus[0]);
  std::vector<int> data(4, 0);
  ocl::Buffer buf = ctx.createBuffer(gpus[0], sizeof(int) * 4);
  queue.enqueueWriteBuffer(buf, 0, sizeof(int) * 4, data.data());
  ocl::Kernel kernel = loaded.createKernel("k");
  kernel.setArg(0, buf);
  queue.enqueueNDRange(kernel, ocl::NDRange1D{4, 4});
  queue.enqueueReadBuffer(buf, 0, sizeof(int) * 4, data.data());
  EXPECT_EQ(data, (std::vector<int>{9, 9, 9, 9}));
}

TEST_F(OclRuntime, KernelArgValidation) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::Program program = ctx.createProgram(
      "__kernel void k(__global int* d, float x, __local int* s) {}");
  program.build();
  ocl::Kernel kernel = program.createKernel("k");
  ocl::Buffer buf = ctx.createBuffer(gpus[0], 16);

  EXPECT_THROW(kernel.setArg(0, 1.0f), common::InvalidArgument);
  EXPECT_THROW(kernel.setArg(1, buf), common::InvalidArgument);
  EXPECT_THROW(kernel.setArg(3, buf), common::InvalidArgument);
  EXPECT_THROW(kernel.setArgLocal(0, 64), common::InvalidArgument);
  EXPECT_NO_THROW(kernel.setArg(0, buf));
  EXPECT_NO_THROW(kernel.setArg(1, 2)); // int converts to float param
  EXPECT_NO_THROW(kernel.setArgLocal(2, 64));

  // Launch with a missing argument is rejected.
  ocl::Kernel incomplete = program.createKernel("k");
  incomplete.setArg(0, buf);
  ocl::CommandQueue queue(gpus[0]);
  EXPECT_THROW(queue.enqueueNDRange(incomplete, ocl::NDRange1D{4, 4}),
               common::InvalidArgument);
}

// --- __local memory is bounded by DeviceSpec::localMemBytes ---------------

TEST_F(OclRuntime, OversizedLocalArgIsOutOfResources) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ASSERT_EQ(gpus[0].spec().localMemBytes, 16u << 10); // the T10's 16 KiB
  ocl::Context ctx({gpus[0]});
  ocl::Program program = ctx.createProgram(
      "__kernel void k(__global int* d, __local int* s) {"
      "  s[0] = 1; d[0] = s[0]; }");
  program.build();
  ocl::Buffer buf = ctx.createBuffer(gpus[0], 16);
  ocl::CommandQueue queue(gpus[0]);
  ocl::Kernel kernel = program.createKernel("k");
  kernel.setArg(0, buf);

  kernel.setArgLocal(1, 16u << 10);
  EXPECT_NO_THROW(queue.enqueueNDRange(kernel, ocl::NDRange1D{4, 4}));
  kernel.setArgLocal(1, (16u << 10) + 1);
  EXPECT_THROW(queue.enqueueNDRange(kernel, ocl::NDRange1D{4, 4}),
               ocl::LaunchFailure);
  kernel.setArgLocal(1, 1ull << 30);
  try {
    queue.enqueueNDRange(kernel, ocl::NDRange1D{4, 4});
    FAIL() << "a 1 GiB __local argument must not launch";
  } catch (const ocl::LaunchFailure& e) {
    EXPECT_EQ(e.status(), ocl::Status::OutOfResources);
  }
  // 4 GiB + 4 bytes would wrap to 4 bytes in 32 bits.
  kernel.setArgLocal(1, (4ull << 30) + 4);
  EXPECT_THROW(queue.enqueueNDRange(kernel, ocl::NDRange1D{4, 4}),
               ocl::LaunchFailure);
}

TEST_F(OclRuntime, StaticLocalDeclarationsCountAgainstTheLimit) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::Buffer buf = ctx.createBuffer(gpus[0], 16);
  ocl::CommandQueue queue(gpus[0]);

  // 12 KiB static plus 8 KiB dynamic: each fits, the sum does not.
  ocl::Program program = ctx.createProgram(
      "__kernel void k(__global int* d, __local int* s) {"
      "  __local int t[3072]; t[0] = 1; s[0] = t[0]; d[0] = s[0]; }");
  program.build();
  ocl::Kernel kernel = program.createKernel("k");
  kernel.setArg(0, buf);
  kernel.setArgLocal(1, 4u << 10);
  EXPECT_NO_THROW(queue.enqueueNDRange(kernel, ocl::NDRange1D{4, 4}));
  kernel.setArgLocal(1, 8u << 10);
  EXPECT_THROW(queue.enqueueNDRange(kernel, ocl::NDRange1D{4, 4}),
               ocl::LaunchFailure);

  // A loaded binary whose static size was patched past the limit.
  ocl::Program small = ctx.createProgram(
      "__kernel void k(__global int* d) { __local int t[4];"
      "  t[0] = 2; d[0] = t[0]; }");
  small.build();
  clc::Program patched = small.compiled();
  patched.kernels[0].staticLocalSize = 1u << 20;
  ocl::Program loaded =
      ctx.createProgramFromBinary(clc::serializeProgram(patched));
  ocl::Kernel big = loaded.createKernel("k");
  big.setArg(0, buf);
  EXPECT_THROW(queue.enqueueNDRange(big, ocl::NDRange1D{4, 4}),
               ocl::LaunchFailure);
}

TEST_F(OclRuntime, ScalarArgConversionToParamType) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::CommandQueue queue(gpus[0]);
  ocl::Program program = ctx.createProgram(
      "__kernel void k(__global float* out, float x) { out[0] = x; }");
  program.build();
  ocl::Buffer buf = ctx.createBuffer(gpus[0], sizeof(float));
  ocl::Kernel kernel = program.createKernel("k");
  kernel.setArg(0, buf);
  kernel.setArg(1, 3); // int -> float parameter
  queue.enqueueNDRange(kernel, ocl::NDRange1D{1, 1});
  float out = 0;
  queue.enqueueReadBuffer(buf, 0, sizeof(float), &out);
  EXPECT_FLOAT_EQ(out, 3.0f);
}

/// Runs `out[0] = <expr>` with `v` declared `paramType` and bound by
/// setArg(1, value); returns out[0] read back as R (`resultType`).
template <typename R, typename T>
R storeScalar(const std::string& resultType, const std::string& paramType,
              const std::string& expr, T value) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::CommandQueue queue(gpus[0]);
  ocl::Program program = ctx.createProgram(
      "__kernel void k(__global " + resultType + "* out, " + paramType +
      " v) { out[0] = " + expr + "; }");
  program.build();
  ocl::Buffer buf = ctx.createBuffer(gpus[0], sizeof(R));
  ocl::Kernel kernel = program.createKernel("k");
  kernel.setArg(0, buf);
  kernel.setArg(1, value);
  queue.enqueueNDRange(kernel, ocl::NDRange1D{1, 1});
  R out{};
  queue.enqueueReadBuffer(buf, 0, sizeof(R), &out);
  return out;
}

TEST_F(OclRuntime, HostScalarConversionMatchesTheKernelsCast) {
  // setArg converts a host value to the parameter's type exactly like the
  // kernel's own cast of that value: out-of-range floats saturate, NaN-
  // free negatives clamp to 0 for unsigned targets, and wide integers
  // truncate to their low bits.
  const auto both = [](const std::string& type, const std::string& source,
                       auto value) {
    using R = std::int64_t;
    const R bound = storeScalar<R>("long", type, "v", value);
    const R cast =
        storeScalar<R>("long", source, "(" + type + ")v", value);
    EXPECT_EQ(bound, cast) << type << " <- " << source;
    return bound;
  };
  EXPECT_EQ(both("int", "float", 1e20f), INT32_MAX);
  EXPECT_EQ(both("int", "float", -1e20f), INT32_MIN);
  EXPECT_EQ(both("uint", "float", -1.0f), 0);
  EXPECT_EQ(both("int", "long", std::int64_t(1) << 40), 0);
  EXPECT_EQ(both("int", "long", (std::int64_t(1) << 40) + 5), 5);
  EXPECT_EQ(both("uint", "int", -1), 4294967295);
  EXPECT_EQ(both("long", "double", 1e30), INT64_MAX);
  EXPECT_EQ(both("int", "double", 3.9), 3);
  EXPECT_EQ(both("int", "double", -3.9), -3);
  EXPECT_EQ(both("long", "uint", 4000000000u), 4000000000);

  // An int bound to a float parameter arrives as the exact float.
  EXPECT_EQ(storeScalar<float>("float", "float", "v", 16777216), 16777216.0f);
  EXPECT_EQ(storeScalar<float>("float", "float", "v", -7), -7.0f);
}

TEST_F(OclRuntime, UnknownKernelNameThrows) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::Program program = ctx.createProgram("__kernel void k() {}");
  program.build();
  EXPECT_THROW(program.createKernel("missing"), common::InvalidArgument);
}

TEST_F(OclRuntime, QueueRejectsForeignBuffers) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0], gpus[1]});
  ocl::CommandQueue queue0(gpus[0]);
  ocl::Buffer onGpu1 = ctx.createBuffer(gpus[1], 16);
  char data[16] = {};
  EXPECT_THROW(queue0.enqueueWriteBuffer(onGpu1, 0, 16, data),
               common::InvalidArgument);
}

TEST_F(OclRuntime, CrossDeviceCopy) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0], gpus[1]});
  ocl::CommandQueue q0(gpus[0]);
  std::vector<int> in = {1, 2, 3, 4}, out(4, 0);
  ocl::Buffer a = ctx.createBuffer(gpus[0], 16);
  ocl::Buffer b = ctx.createBuffer(gpus[1], 16);
  q0.enqueueWriteBuffer(a, 0, 16, in.data());
  q0.enqueueCopyBuffer(a, 0, b, 0, 16);
  ocl::CommandQueue q1(gpus[1]);
  q1.enqueueReadBuffer(b, 0, 16, out.data());
  EXPECT_EQ(in, out);
}

TEST_F(OclRuntime, SameDeviceCopyOnForeignQueueThrows) {
  // Regression: both buffers live on gpu1 but the queue belongs to gpu0.
  // The on-device copy path used to skip the ownership check and charge
  // gpu0's timeline with gpu1's copy.
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0], gpus[1]});
  ocl::CommandQueue q0(gpus[0]);
  ocl::Buffer a = ctx.createBuffer(gpus[1], 16);
  ocl::Buffer b = ctx.createBuffer(gpus[1], 16);
  EXPECT_THROW(q0.enqueueCopyBuffer(a, 0, b, 0, 16),
               common::InvalidArgument);
  // On the owning queue the same copy is fine.
  ocl::CommandQueue q1(gpus[1]);
  EXPECT_NO_THROW(q1.enqueueCopyBuffer(a, 0, b, 0, 16));
}

TEST_F(OclRuntime, WorkGroupSizeLimitEnforced) {
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  ocl::Context ctx({gpus[0]});
  ocl::CommandQueue queue(gpus[0]);
  ocl::Program program = ctx.createProgram("__kernel void k() {}");
  program.build();
  ocl::Kernel kernel = program.createKernel("k");
  EXPECT_THROW(queue.enqueueNDRange(kernel, ocl::NDRange1D{2048, 1024}),
               common::InvalidArgument);
}

} // namespace
