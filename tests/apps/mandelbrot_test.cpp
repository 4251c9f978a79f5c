// Cross-implementation consistency of the Mandelbrot case study.
#include <gtest/gtest.h>

#include "common/byte_stream.h"
#include "cuda/runtime.h"
#include "mandelbrot/mandelbrot.h"
#include "skelcl/skelcl.h"

namespace {

class MandelbrotTest : public ::testing::Test {
protected:
  void SetUp() override {
    ::setenv("SKELCL_CACHE_DIR", "/tmp/skelcl-mandel-test-cache", 1);
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
    cuda::reset();
    skelcl::init(skelcl::DeviceSelection::nGPUs(1));
  }
  void TearDown() override { skelcl::terminate(); }

  mandelbrot::FractalParams params_ = [] {
    mandelbrot::FractalParams p;
    p.width = 96;
    p.height = 64;
    p.maxIterations = 32;
    return p;
  }();
};

TEST_F(MandelbrotTest, ReferenceLooksLikeAMandelbrotSet) {
  const auto ref = mandelbrot::computeReference(params_);
  ASSERT_EQ(ref.iterations.size(), params_.pixels());
  // The center of the image (around -0.75 + 0i) is inside the set.
  const auto at = [&](std::uint32_t x, std::uint32_t y) {
    return ref.iterations[std::size_t(y) * params_.width + x];
  };
  EXPECT_EQ(at(params_.width / 2, params_.height / 2),
            std::int32_t(params_.maxIterations));
  // The corners diverge immediately-ish.
  EXPECT_LT(at(0, 0), 3);
  EXPECT_LT(at(params_.width - 1, params_.height - 1), 3);
}

TEST_F(MandelbrotTest, CudaMatchesReference) {
  const auto ref = mandelbrot::computeReference(params_);
  const auto gpu = mandelbrot::computeCuda(params_);
  EXPECT_EQ(gpu.iterations, ref.iterations);
  EXPECT_GT(gpu.virtualSeconds, 0.0);
}

TEST_F(MandelbrotTest, OpenClMatchesReference) {
  const auto ref = mandelbrot::computeReference(params_);
  const auto gpu = mandelbrot::computeOpenCl(params_);
  EXPECT_EQ(gpu.iterations, ref.iterations);
  EXPECT_GT(gpu.virtualSeconds, 0.0);
}

TEST_F(MandelbrotTest, SkelClMatchesReference) {
  const auto ref = mandelbrot::computeReference(params_);
  const auto gpu = mandelbrot::computeSkelCl(params_);
  EXPECT_EQ(gpu.iterations, ref.iterations);
  EXPECT_GT(gpu.virtualSeconds, 0.0);
}

TEST_F(MandelbrotTest, RuntimeOrderMatchesPaper) {
  // Fig. 1 shape at its default size (384x288, 256 iterations): CUDA
  // fastest, SkelCL within the paper's < 5 % of OpenCL and no large win
  // either (it measures -3.4 %; EXPERIMENTS.md note 1 explains why).
  const mandelbrot::FractalParams fig1 =
      mandelbrot::FractalParams::benchSize();
  const auto cuda = mandelbrot::computeCuda(fig1);
  const auto opencl = mandelbrot::computeOpenCl(fig1);
  const auto skelcl = mandelbrot::computeSkelCl(fig1);
  EXPECT_LT(cuda.virtualSeconds, opencl.virtualSeconds);
  EXPECT_LT(skelcl.virtualSeconds / opencl.virtualSeconds, 1.05)
      << "SkelCL overhead should be small";
  EXPECT_GT(skelcl.virtualSeconds / opencl.virtualSeconds, 0.90);

  // At 256x192 with 32 iterations compute no longer hides SkelCL's
  // extra work, and the paper's explanation (Sec. IV-A) shows directly:
  // the baselines derive each pixel's coordinates from its thread id,
  // SkelCL's Map uploads them (two floats per pixel). SkelCL is slower
  // than OpenCL by at most that upload's modelled duration.
  mandelbrot::FractalParams small = params_;
  small.width = 256;
  small.height = 192;
  const auto smallCuda = mandelbrot::computeCuda(small);
  const auto smallOpenCl = mandelbrot::computeOpenCl(small);
  const auto smallSkelCl = mandelbrot::computeSkelCl(small);
  EXPECT_LT(smallCuda.virtualSeconds, smallOpenCl.virtualSeconds);
  const double gapNs =
      (smallSkelCl.virtualSeconds - smallOpenCl.virtualSeconds) * 1e9;
  const ocl::TimingModel model(ocl::DeviceSpec::teslaT10(),
                               ocl::Backend::OpenCL);
  const double uploadNs =
      double(model.transferDurationNs(small.pixels() * 2 * sizeof(float)));
  EXPECT_GT(gapNs, 0.0);
  EXPECT_LE(gapNs, uploadNs) << "SkelCL's extra time is the upload";
}

TEST_F(MandelbrotTest, CustomWorkGroupSize) {
  const auto ref = mandelbrot::computeReference(params_);
  const auto gpu = mandelbrot::computeSkelCl(params_, 64);
  EXPECT_EQ(gpu.iterations, ref.iterations);
}

TEST_F(MandelbrotTest, LocEntriesPointAtRealFiles) {
  for (const auto& entry : mandelbrot::locEntries()) {
    EXPECT_TRUE(common::fileExists(entry.kernelFile)) << entry.kernelFile;
    EXPECT_TRUE(common::fileExists(entry.hostFile)) << entry.hostFile;
  }
}

TEST_F(MandelbrotTest, PpmWriterProducesValidHeader) {
  const auto ref = mandelbrot::computeReference(params_);
  const std::string path = "/tmp/skelcl-mandel-test.ppm";
  mandelbrot::writePpm(path, params_, ref.iterations);
  const auto bytes = common::readFile(path);
  ASSERT_GT(bytes.size(), 15u);
  EXPECT_EQ(bytes[0], 'P');
  EXPECT_EQ(bytes[1], '6');
  // Pixel payload is width*height*3 bytes.
  const std::string header(bytes.begin(), bytes.begin() + 15);
  EXPECT_NE(header.find("96 64"), std::string::npos);
}

} // namespace
