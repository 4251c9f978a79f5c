// Tests for the virtual-time model: device timelines, event profiling,
// transfer and kernel duration scaling, backend profiles.
#include <gtest/gtest.h>

#include "ocl/ocl.h"
#include "trace/recorder.h"

namespace {

class OclTiming : public ::testing::Test {
protected:
  void SetUp() override {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(4));
    gpus_ = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  }

  std::vector<ocl::Device> gpus_;
};

TEST_F(OclTiming, ConfigureResetsClocks) {
  EXPECT_EQ(ocl::hostTimeNs(), 0u);
  ocl::advanceHostTimeNs(100);
  EXPECT_EQ(ocl::hostTimeNs(), 100u);
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
  EXPECT_EQ(ocl::hostTimeNs(), 0u);
}

TEST_F(OclTiming, TransferDurationScalesWithSize) {
  const ocl::TimingModel model(ocl::DeviceSpec::teslaT10(),
                               ocl::Backend::OpenCL);
  const auto small = model.transferDurationNs(1 << 10);
  const auto large = model.transferDurationNs(64 << 20);
  EXPECT_LT(small, large);
  // 64 MiB over 5.2 GB/s is ~12.9 ms; latency is negligible there.
  EXPECT_NEAR(double(large), 64e6 * (1 << 20) / (5.2e9 * 1e6) * 1e9, 1e6);
  // Small transfers are latency-bound (8 us).
  EXPECT_GT(small, 8'000u);
  EXPECT_LT(small, 9'000u);
}

TEST_F(OclTiming, EventsExposeProfilingTimes) {
  ocl::Context ctx({gpus_[0]});
  ocl::CommandQueue queue(gpus_[0]);
  std::vector<char> data(1 << 20, 0);
  ocl::Buffer buf = ctx.createBuffer(gpus_[0], data.size());
  ocl::Event e = queue.enqueueWriteBuffer(buf, 0, data.size(), data.data());
  EXPECT_GT(e.endNs(), e.startNs());
  EXPECT_GE(e.startNs(), e.queuedNs());
  EXPECT_EQ(e.durationNs(), e.endNs() - e.startNs());
}

TEST_F(OclTiming, ProfilingInfoMirrorsClProfilingQueries) {
  ocl::Context ctx({gpus_[0]});
  ocl::CommandQueue queue(gpus_[0]);
  std::vector<char> data(1 << 20, 0);
  ocl::Buffer buf = ctx.createBuffer(gpus_[0], data.size());
  ocl::Event e = queue.enqueueWriteBuffer(buf, 0, data.size(), data.data());

  // The four CL_PROFILING_COMMAND_* timestamps, in their CL ordering.
  const ocl::ProfilingInfo info = e.profilingInfo();
  EXPECT_LE(info.queuedNs, info.submitNs);
  EXPECT_LE(info.submitNs, info.startNs);
  EXPECT_LE(info.startNs, info.endNs);
  EXPECT_EQ(info.queuedNs, e.queuedNs());
  EXPECT_EQ(info.submitNs, e.submitNs());
  EXPECT_EQ(info.startNs, e.startNs());
  EXPECT_EQ(info.endNs, e.endNs());

  // Commands carry unique, ascending ids for trace correlation.
  ocl::Event e2 = queue.enqueueWriteBuffer(buf, 0, data.size(), data.data());
  EXPECT_GT(e.commandId(), 0u);
  EXPECT_GT(e2.commandId(), e.commandId());
}

TEST_F(OclTiming, InOrderQueueSerializesCommands) {
  ocl::Context ctx({gpus_[0]});
  ocl::CommandQueue queue(gpus_[0]);
  std::vector<char> data(1 << 16, 0);
  ocl::Buffer buf = ctx.createBuffer(gpus_[0], data.size());
  ocl::Event e1 = queue.enqueueWriteBuffer(buf, 0, data.size(), data.data());
  ocl::Event e2 = queue.enqueueWriteBuffer(buf, 0, data.size(), data.data());
  EXPECT_GE(e2.startNs(), e1.endNs());
}

TEST_F(OclTiming, IndependentDevicesOverlapInVirtualTime) {
  ocl::Context ctx({gpus_[0], gpus_[1]});
  ocl::CommandQueue q0(gpus_[0]);
  ocl::CommandQueue q1(gpus_[1]);
  std::vector<char> data(8 << 20, 0);
  ocl::Buffer b0 = ctx.createBuffer(gpus_[0], data.size());
  ocl::Buffer b1 = ctx.createBuffer(gpus_[1], data.size());
  ocl::Event e0 = q0.enqueueWriteBuffer(b0, 0, data.size(), data.data());
  ocl::Event e1 = q1.enqueueWriteBuffer(b1, 0, data.size(), data.data());
  // The second transfer starts long before the first ends: the devices'
  // timelines overlap instead of serializing.
  EXPECT_LT(e1.startNs(), e0.endNs());
}

TEST_F(OclTiming, FinishAdvancesHostClock) {
  ocl::Context ctx({gpus_[0]});
  ocl::CommandQueue queue(gpus_[0]);
  std::vector<char> data(16 << 20, 0);
  ocl::Buffer buf = ctx.createBuffer(gpus_[0], data.size());
  ocl::Event e = queue.enqueueWriteBuffer(buf, 0, data.size(), data.data());
  EXPECT_LT(ocl::hostTimeNs(), e.endNs()); // enqueue returns "immediately"
  queue.finish();
  EXPECT_GE(ocl::hostTimeNs(), e.endNs());
}

TEST_F(OclTiming, DependenciesDelayCommandStart) {
  ocl::Context ctx({gpus_[0], gpus_[1]});
  ocl::CommandQueue q0(gpus_[0]);
  ocl::CommandQueue q1(gpus_[1]);
  std::vector<char> data(8 << 20, 0);
  ocl::Buffer b0 = ctx.createBuffer(gpus_[0], data.size());
  ocl::Buffer b1 = ctx.createBuffer(gpus_[1], data.size());
  ocl::Event e0 = q0.enqueueWriteBuffer(b0, 0, data.size(), data.data());
  ocl::Event e1 =
      q1.enqueueWriteBuffer(b1, 0, data.size(), data.data(), {e0});
  EXPECT_GE(e1.startNs(), e0.endNs());
}

std::uint64_t runMapKernel(const ocl::Device& device, ocl::Backend backend,
                           std::size_t n) {
  ocl::Context ctx({device});
  ocl::CommandQueue queue(device, backend);
  ocl::Program program = ctx.createProgram(R"(
    __kernel void f(__global float* data, uint n) {
      size_t i = get_global_id(0);
      if (i < n) data[i] = data[i] * 2.0f + 1.0f;
    }
  )");
  program.build();
  std::vector<float> data(n, 1.0f);
  ocl::Buffer buf = ctx.createBuffer(device, n * sizeof(float));
  queue.enqueueWriteBuffer(buf, 0, n * sizeof(float), data.data());
  ocl::Kernel kernel = program.createKernel("f");
  kernel.setArg(0, buf);
  kernel.setArg(1, std::uint32_t(n));
  ocl::Event e =
      queue.enqueueNDRange(kernel, ocl::NDRange1D{(n + 255) / 256 * 256,
                                                  256});
  return e.durationNs();
}

TEST_F(OclTiming, KernelDurationScalesWithWork) {
  const auto small = runMapKernel(gpus_[0], ocl::Backend::OpenCL, 1 << 12);
  const auto large = runMapKernel(gpus_[1], ocl::Backend::OpenCL, 1 << 18);
  EXPECT_GT(large, small);
  // 64x the work; the fixed launch overhead dominates the small case,
  // so the observed ratio is far below 64 but must still be substantial.
  EXPECT_GT(double(large) / double(small), 4.0);
  EXPECT_LT(double(large) / double(small), 64.0);
}

TEST_F(OclTiming, CudaBackendIsFasterThanOpenCl) {
  const auto opencl = runMapKernel(gpus_[0], ocl::Backend::OpenCL, 1 << 16);
  const auto cuda = runMapKernel(gpus_[1], ocl::Backend::Cuda, 1 << 16);
  EXPECT_LT(cuda, opencl);
  // The calibrated gap is ~1.3x on compute-bound kernels plus the
  // launch-overhead difference; allow a generous window.
  EXPECT_GT(double(opencl) / double(cuda), 1.05);
  EXPECT_LT(double(opencl) / double(cuda), 1.8);
}

// --- Engine timelines and out-of-order scheduling (overlap model) ---

class OclEngines : public OclTiming {
protected:
  void SetUp() override {
    OclTiming::SetUp();
    ctx_ = ocl::Context({gpus_[0]});
    queue_ = ocl::CommandQueue(gpus_[0], ocl::Backend::OpenCL,
                               ocl::QueueOrder::OutOfOrder);
    program_ = ctx_.createProgram(R"(
      __kernel void f(__global float* data, uint n) {
        size_t i = get_global_id(0);
        if (i < n) data[i] = data[i] * 2.0f + 1.0f;
      }
    )");
    program_.build();
  }

  ocl::Event launchKernel(const ocl::Buffer& buf, std::size_t n,
                          const std::vector<ocl::Event>& deps = {}) {
    ocl::Kernel kernel = program_.createKernel("f");
    kernel.setArg(0, buf);
    kernel.setArg(1, std::uint32_t(n));
    return queue_.enqueueNDRange(
        kernel, ocl::NDRange1D{(n + 255) / 256 * 256, 256}, deps);
  }

  ocl::Context ctx_;
  ocl::CommandQueue queue_;
  ocl::Program program_;
};

TEST_F(OclEngines, CommandsReportTheirEngine) {
  std::vector<float> data(1 << 12, 1.0f);
  const std::size_t bytes = data.size() * sizeof(float);
  ocl::Buffer buf = ctx_.createBuffer(gpus_[0], bytes);
  ocl::Event up = queue_.enqueueWriteBuffer(buf, 0, bytes, data.data());
  ocl::Event k = launchKernel(buf, data.size(), {up});
  ocl::Event down = queue_.enqueueReadBuffer(buf, 0, bytes, data.data(),
                                             /*blocking=*/false, {k});
  EXPECT_EQ(up.engine(), ocl::Engine::HostToDevice);
  EXPECT_EQ(k.engine(), ocl::Engine::Compute);
  EXPECT_EQ(down.engine(), ocl::Engine::DeviceToHost);
}

TEST_F(OclEngines, IndependentWriteOverlapsCompute) {
  // A kernel occupies the compute engine; an independent upload runs on
  // the free H2D DMA engine and starts before the kernel ends — the
  // overlap a single-timeline device model cannot express.
  std::vector<float> a(1 << 18, 1.0f), b(8 << 20, 0.0f);
  ocl::Buffer bufA = ctx_.createBuffer(gpus_[0], a.size() * sizeof(float));
  ocl::Buffer bufB = ctx_.createBuffer(gpus_[0], b.size() * sizeof(float));
  ocl::Event seed = queue_.enqueueWriteBuffer(
      bufA, 0, a.size() * sizeof(float), a.data());
  ocl::Event k = launchKernel(bufA, a.size(), {seed});
  ocl::Event up = queue_.enqueueWriteBuffer(
      bufB, 0, b.size() * sizeof(float), b.data());
  EXPECT_LT(up.startNs(), k.endNs());
  EXPECT_GT(up.endNs(), k.startNs()); // genuinely concurrent intervals
}

TEST_F(OclEngines, DependentCommandNeverStartsBeforeDependency) {
  std::vector<float> data(4 << 20, 1.0f);
  const std::size_t bytes = data.size() * sizeof(float);
  ocl::Buffer buf = ctx_.createBuffer(gpus_[0], bytes);
  ocl::Event up = queue_.enqueueWriteBuffer(buf, 0, bytes, data.data());
  ocl::Event k = launchKernel(buf, data.size(), {up});
  EXPECT_GE(k.startNs(), up.endNs());
  ocl::Event down = queue_.enqueueReadBuffer(buf, 0, bytes, data.data(),
                                             /*blocking=*/false, {k});
  EXPECT_GE(down.startNs(), k.endNs());
}

TEST_F(OclEngines, SameEngineExecutesFifo) {
  // No explicit dependency, but both commands occupy the H2D DMA engine:
  // they serialize FIFO even on an out-of-order queue.
  std::vector<float> data(1 << 20, 1.0f);
  const std::size_t bytes = data.size() * sizeof(float);
  ocl::Buffer buf = ctx_.createBuffer(gpus_[0], bytes);
  ocl::Event e1 = queue_.enqueueWriteBuffer(buf, 0, bytes, data.data());
  ocl::Event e2 = queue_.enqueueWriteBuffer(buf, 0, bytes, data.data());
  EXPECT_GE(e2.startNs(), e1.endNs());
}

TEST_F(OclEngines, FinishWaitsForAllThreeEngines) {
  std::vector<float> a(1 << 18, 1.0f), b(8 << 20, 0.0f);
  std::vector<float> out(1 << 18, 0.0f);
  ocl::Buffer bufA = ctx_.createBuffer(gpus_[0], a.size() * sizeof(float));
  ocl::Buffer bufB = ctx_.createBuffer(gpus_[0], b.size() * sizeof(float));
  ocl::Event seed = queue_.enqueueWriteBuffer(
      bufA, 0, a.size() * sizeof(float), a.data());
  ocl::Event k = launchKernel(bufA, a.size(), {seed});
  ocl::Event down = queue_.enqueueReadBuffer(
      bufA, 0, out.size() * sizeof(float), out.data(),
      /*blocking=*/false, {k});
  ocl::Event up = queue_.enqueueWriteBuffer(
      bufB, 0, b.size() * sizeof(float), b.data());
  const std::uint64_t lastEnd =
      std::max({k.endNs(), down.endNs(), up.endNs()});
  EXPECT_LT(ocl::hostTimeNs(), lastEnd); // enqueues returned immediately
  queue_.finish();
  EXPECT_EQ(ocl::hostTimeNs(), lastEnd); // max over all three engines
}

TEST_F(OclEngines, InOrderQueueSerializesAcrossEngines) {
  // The same command pair on an in-order queue: the independent upload
  // still waits for the kernel (classic single-timeline behavior).
  ocl::CommandQueue inOrder(gpus_[0]);
  std::vector<float> a(1 << 18, 1.0f), b(8 << 20, 0.0f);
  ocl::Buffer bufA = ctx_.createBuffer(gpus_[0], a.size() * sizeof(float));
  ocl::Buffer bufB = ctx_.createBuffer(gpus_[0], b.size() * sizeof(float));
  inOrder.enqueueWriteBuffer(bufA, 0, a.size() * sizeof(float), a.data());
  ocl::Kernel kernel = program_.createKernel("f");
  kernel.setArg(0, bufA);
  kernel.setArg(1, std::uint32_t(a.size()));
  ocl::Event k = inOrder.enqueueNDRange(
      kernel, ocl::NDRange1D{(a.size() + 255) / 256 * 256, 256});
  ocl::Event up = inOrder.enqueueWriteBuffer(
      bufB, 0, b.size() * sizeof(float), b.data());
  EXPECT_GE(up.startNs(), k.endNs());
}

TEST_F(OclTiming, KernelDurationAccumulatesFractionalGroupCycles) {
  // Regression: per-work-group truncation of sumCycles / pesPerUnit
  // under-billed kernels whose groups are narrower than one CU's PE
  // width. A synthetic 1-CU, 8-PE, 1 GHz device makes the arithmetic
  // exact: 1000 groups of max(12/8, 1) = 1.5 cycles accumulate to 1500
  // cycles, not the 1000 the truncating model charged.
  ocl::DeviceSpec spec = ocl::DeviceSpec::teslaT10();
  spec.computeUnits = 1;
  spec.pesPerUnit = 8;
  spec.clockGHz = 1.0;
  spec.memBandwidthGBs = 1e9; // memory never the roofline here
  const ocl::TimingModel model(spec, ocl::Backend::Cuda); // efficiency 1.0

  clc::LaunchStats stats;
  stats.groups.assign(1000, clc::GroupCost{12, 1});
  const auto overhead =
      ocl::BackendProfile::forBackend(ocl::Backend::Cuda).launchOverheadNs;
  EXPECT_EQ(model.kernelDurationNs(stats), overhead + 1500u);

  // Groups with sumCycles < pesPerUnit keep their fractional cost too:
  // 100 groups of max(4/8, 0) = 0.5 cycles bill ceil(50) = 50 ns, where
  // truncation charged zero.
  stats.groups.assign(100, clc::GroupCost{4, 0});
  EXPECT_EQ(model.kernelDurationNs(stats), overhead + 50u);
}

// A synthetic device on which a group of GroupCost{c, c} costs exactly c
// cycles and one cycle is one nanosecond (1 PE per CU, 1 GHz, CUDA
// efficiency 1.0, memory never the roofline).
ocl::TimingModel dispatchModel(std::uint32_t computeUnits) {
  ocl::DeviceSpec spec = ocl::DeviceSpec::teslaT10();
  spec.computeUnits = computeUnits;
  spec.pesPerUnit = 1;
  spec.clockGHz = 1.0;
  spec.memBandwidthGBs = 1e9;
  return ocl::TimingModel(spec, ocl::Backend::Cuda);
}

clc::LaunchStats groupsOfCycles(const std::vector<std::uint64_t>& cycles) {
  clc::LaunchStats stats;
  for (const std::uint64_t c : cycles) stats.groups.push_back({c, c});
  return stats;
}

const std::uint64_t kCudaLaunchNs =
    ocl::BackendProfile::forBackend(ocl::Backend::Cuda).launchOverheadNs;

TEST_F(OclTiming, FewerGroupsThanComputeUnitsKeepGroupPerUnit) {
  // With at most one group per CU, first-free dispatch puts group g on
  // CU g, exactly as the round-robin rule it replaced: launches of up
  // to 30 groups on a T10 bill the same duration under both.
  const ocl::TimingModel model = dispatchModel(30);
  const std::vector<std::uint64_t> cycles = {7, 5, 12, 3, 12, 40, 1};
  const clc::LaunchStats few = groupsOfCycles(cycles);
  std::vector<double> roundRobin(30, 0.0);
  for (std::size_t g = 0; g < cycles.size(); ++g)
    roundRobin[g % 30] += double(cycles[g]);
  EXPECT_EQ(model.computeUnitCycles(few), roundRobin);
  EXPECT_EQ(model.kernelDurationNs(few), kCudaLaunchNs + 40u);

  std::vector<std::uint64_t> full(30);
  for (std::size_t g = 0; g < full.size(); ++g) full[g] = 1 + (g * 17) % 23;
  const std::vector<double> perCu =
      model.computeUnitCycles(groupsOfCycles(full));
  for (std::size_t g = 0; g < full.size(); ++g)
    EXPECT_EQ(perCu[g], double(full[g])) << "group " << g;
  EXPECT_EQ(model.kernelDurationNs(groupsOfCycles(full)),
            kCudaLaunchNs + 23u);

  // A zero-cost group leaves its CU idle, so the next group shares it
  // and the later ones shift down a CU; every group still starts on an
  // idle CU, and the duration is round-robin's max group, 12.
  const clc::LaunchStats withEmpty = groupsOfCycles({7, 0, 12, 3});
  EXPECT_EQ(model.computeUnitCycles(withEmpty)[1], 12.0);
  EXPECT_EQ(model.kernelDurationNs(withEmpty), kCudaLaunchNs + 12u);
}

TEST_F(OclTiming, NextGroupGoesToFirstFreeComputeUnit) {
  // A heavy group 0 keeps CU 0 busy while CUs 1-3 finish one light group
  // each, so the last light group starts on CU 1 (first free, lowest
  // index among the three), not on CU 0 as round-robin g % 4 put it.
  const ocl::TimingModel model = dispatchModel(4);
  const clc::LaunchStats stats = groupsOfCycles({10, 4, 4, 4, 4});
  EXPECT_EQ(model.computeUnitCycles(stats),
            (std::vector<double>{10, 8, 4, 4}));
  EXPECT_EQ(model.kernelDurationNs(stats), kCudaLaunchNs + 10u); // g%4: 14
}

TEST_F(OclTiming, EqualComputeUnitLoadsTieToLowestIndex) {
  // After three equal groups on three CUs every CU is equally loaded;
  // group 3 then goes to CU 0 and group 4 to CU 1.
  const ocl::TimingModel model = dispatchModel(3);
  EXPECT_EQ(model.computeUnitCycles(groupsOfCycles({2, 2, 2, 5, 1})),
            (std::vector<double>{7, 3, 2}));
  // The same from a tie among a subset: CUs 1 and 2 both hold 1 cycle.
  EXPECT_EQ(model.computeUnitCycles(groupsOfCycles({6, 1, 1, 4})),
            (std::vector<double>{6, 5, 1}));
}

TEST_F(OclTiming, HotColumnsSharingAFactorWithComputeUnitsSpreadOut) {
  // An image whose rows span 2 work-groups, hot on the left (9 cycles)
  // and cold on the right (1 cycle), on 4 CUs. Round-robin g % 4 put
  // every hot group on CUs 0 and 2 (18 cycles each, CUs 1 and 3 idle at
  // 2); first-free dispatch moves the later hot groups onto the CUs the
  // cold groups freed, and the kernel's critical path drops from 18 to
  // 11 cycles.
  const ocl::TimingModel model = dispatchModel(4);
  const clc::LaunchStats stats = groupsOfCycles({9, 1, 9, 1, 9, 1, 9, 1});
  EXPECT_EQ(model.computeUnitCycles(stats),
            (std::vector<double>{10, 10, 9, 11}));
  EXPECT_EQ(model.kernelDurationNs(stats), kCudaLaunchNs + 11u); // g%4: 18

  // The same pattern on a T10's 30 CUs with rows of 6 groups (6 shares
  // the factor 6 with 30) and 10 rows: round-robin stacked the 10 hot
  // groups of column 0 on CUs 0, 6, 12, 18 and 24, two each, for
  // 2 x 9 = 18 cycles; first-free dispatch puts them on 10 different
  // CUs, and the busiest holds one hot and one cold group, 10 cycles.
  const ocl::TimingModel t10 = dispatchModel(30);
  std::vector<std::uint64_t> image;
  for (int row = 0; row < 10; ++row)
    for (int column = 0; column < 6; ++column)
      image.push_back(column == 0 ? 9 : 1);
  EXPECT_EQ(t10.kernelDurationNs(groupsOfCycles(image)),
            kCudaLaunchNs + 10u); // g%30: 18
}

TEST_F(OclTiming, PeerCopyLegsOverlapInsteadOfSumming) {
  // Regression: the staged cross-device copy charged src-D2H plus
  // dst-H2D as a strict sum — the full PCIe latency and wire time
  // twice. The legs pipeline: identical devices pay exactly one leg's
  // latency + wire, the same as a single host transfer.
  ocl::Context ctx({gpus_[0], gpus_[1]});
  ocl::CommandQueue q0(gpus_[0]);
  ocl::CommandQueue q1(gpus_[1]);
  const std::size_t bytes = 4 << 20;
  std::vector<char> data(bytes, 1);
  ocl::Buffer src = ctx.createBuffer(gpus_[0], bytes);
  ocl::Buffer dst = ctx.createBuffer(gpus_[1], bytes);
  ocl::Event up = q0.enqueueWriteBuffer(src, 0, bytes, data.data());
  ocl::Event copy = q1.enqueueCopyBuffer(src, 0, dst, 0, bytes, {up});

  const ocl::TimingModel model(gpus_[0].spec(), ocl::Backend::OpenCL);
  const std::uint64_t oneLeg = model.transferDurationNs(bytes);
  EXPECT_EQ(copy.durationNs(), oneLeg);
  EXPECT_LT(copy.durationNs(), 2 * oneLeg); // the old sum formula

  // Both DMA engines are held for the copy's span: a follow-up upload
  // to the destination cannot start before the copy ends.
  ocl::Event next = q1.enqueueWriteBuffer(dst, 0, bytes, data.data());
  EXPECT_GE(next.startNs(), copy.endNs());
}

TEST_F(OclTiming, PeerCopyIsOneCommandOnTwoLegs) {
  // A cross-device copy is one command occupying two legs: the source's
  // D2H engine, then the destination's H2D engine.
  ocl::Context ctx({gpus_[0], gpus_[1]});
  ocl::CommandQueue q0(gpus_[0]);
  ocl::CommandQueue q1(gpus_[1]);
  const std::size_t bytes = 1 << 20;
  std::vector<char> data(4 * bytes, 1);
  ocl::Buffer src = ctx.createBuffer(gpus_[0], 4 * bytes);
  ocl::Buffer dst = ctx.createBuffer(gpus_[1], bytes);
  // Neither command occupies an engine the copy needs, so only an
  // in-order queue waits for them: an upload to the source and a
  // download from the destination.
  ocl::Event up = q0.enqueueWriteBuffer(src, 0, 4 * bytes, data.data());
  ocl::Event down =
      q1.enqueueReadBuffer(dst, 0, bytes, data.data(), /*blocking=*/false);
  const std::uint64_t srcReady = gpus_[0].state().readyTimeNs();
  const std::uint64_t dstReady = gpus_[1].state().readyTimeNs();
  EXPECT_EQ(srcReady, up.endNs());
  EXPECT_EQ(dstReady, down.endNs());
  ASSERT_NE(srcReady, dstReady);
  const std::uint64_t srcDma = gpus_[0].state().dmaBytes();
  const std::uint64_t dstDma = gpus_[1].state().dmaBytes();

  trace::Recorder::instance().start();
  ocl::CommandQueue inOrder(gpus_[1]);
  ocl::Event copy = inOrder.enqueueCopyBuffer(src, 0, dst, 0, bytes, {down});
  const trace::Trace t = trace::Recorder::instance().stop();

  EXPECT_EQ(copy.startNs(), std::max(srcReady, dstReady));
  EXPECT_EQ(copy.engine(), ocl::Engine::HostToDevice);
  EXPECT_EQ(gpus_[0].state().dmaBytes(), srcDma + bytes);
  EXPECT_EQ(gpus_[1].state().dmaBytes(), dstDma + bytes);
  EXPECT_EQ(gpus_[0].state().readyTimeNs(ocl::Engine::DeviceToHost),
            copy.endNs());
  EXPECT_EQ(gpus_[1].state().readyTimeNs(ocl::Engine::HostToDevice),
            copy.endNs());

  ASSERT_EQ(t.commands.size(), 2u);
  const trace::CommandRecord& out = t.commands[0];
  const trace::CommandRecord& in = t.commands[1];
  EXPECT_EQ(t.strings[out.name], "copy_peer_out");
  EXPECT_EQ(out.device, 0u);
  EXPECT_EQ(out.engine, std::uint8_t(ocl::Engine::DeviceToHost));
  EXPECT_EQ(out.id, copy.commandId() + 1);
  EXPECT_EQ(t.strings[in.name], "copy_peer_in");
  EXPECT_EQ(in.device, 1u);
  EXPECT_EQ(in.engine, std::uint8_t(ocl::Engine::HostToDevice));
  EXPECT_EQ(in.id, copy.commandId());
  for (const trace::CommandRecord* leg : {&out, &in}) {
    EXPECT_EQ(leg->kind, trace::CommandKind::CopyPeer);
    EXPECT_EQ(leg->bytes, bytes);
    EXPECT_EQ(leg->startNs, copy.startNs());
    EXPECT_EQ(leg->endNs, copy.endNs());
    EXPECT_EQ(leg->deps, std::vector<std::uint64_t>{down.commandId()});
  }
}

TEST_F(OclTiming, MoreComputeUnitsRunFaster) {
  ocl::DeviceSpec big = ocl::DeviceSpec::teslaT10();
  ocl::DeviceSpec half = big;
  half.computeUnits = big.computeUnits / 2;
  ocl::SystemConfig config;
  config.devices = {big, half};
  ocl::configureSystem(config);
  auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  const auto fast = runMapKernel(gpus[0], ocl::Backend::OpenCL, 1 << 18);
  const auto slow = runMapKernel(gpus[1], ocl::Backend::OpenCL, 1 << 18);
  EXPECT_LT(fast, slow);
}

} // namespace
