// mandelbrot: a seeded tour of viewports at the paper's bench size
// (384x288, 256 iterations), one SkelCL Map over the 4 GPUs per frame,
// each frame bit-identical to mandelbrot::computeReference.
//
// The tour visits ten fixed viewports in order; the seed jitters every
// frame's centre and zoom slightly. So the frames differ in iteration
// count (and in how unevenly the block partition's chunks load the
// devices), while the total work of a run barely moves with the seed.
#include <algorithm>
#include <cmath>

#include "common/prng.h"
#include "mandelbrot/mandelbrot.h"
#include "mandelbrot_skelcl_source.h"
#include "workload.h"

namespace perfbench {

namespace {

struct PixelPos {
  float re;
  float im;
};

struct TourStop {
  float centerX;
  float centerY;
  float viewWidth;
};

constexpr TourStop kTour[] = {
    {-0.75f, 0.0f, 3.5f},  {-0.5f, 0.0f, 3.0f},   {-0.75f, 0.3f, 2.5f},
    {-0.75f, -0.3f, 2.5f}, {-1.0f, 0.0f, 2.0f},   {-0.25f, 0.5f, 2.0f},
    {-0.25f, -0.5f, 2.0f}, {-1.4f, 0.0f, 1.0f},   {0.0f, 0.8f, 1.2f},
    {-0.6f, 0.6f, 1.2f},
};

/// Frames per measured second on a 4-core host (0.5-1 s per frame).
constexpr double kFramesPerSecond = 1.5;

class MandelbrotWorkload : public Workload {
public:
  MandelbrotWorkload(std::uint64_t seed, double passSeconds) {
    const std::size_t frames = std::max<std::size_t>(
        2, std::size_t(std::lround(kFramesPerSecond * passSeconds)));
    common::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < frames; ++i) {
      const TourStop& stop = kTour[i % std::size(kTour)];
      mandelbrot::FractalParams p = mandelbrot::FractalParams::benchSize();
      p.viewWidth =
          stop.viewWidth * (1.0f + 0.04f * (rng.nextFloat() - 0.5f));
      p.centerX =
          stop.centerX + 0.01f * p.viewWidth * (rng.nextFloat() - 0.5f);
      p.centerY =
          stop.centerY + 0.01f * p.viewWidth * (rng.nextFloat() - 0.5f);
      params_.push_back(p);
    }
  }

  void setup() override {
    skelcl::registerType<PixelPos>(
        "PixelPos", "typedef struct { float re; float im; } PixelPos;");
    map_ = std::make_unique<skelcl::Map<PixelPos, std::int32_t>>(
        kMandelbrotSkelClSource);
    positions_.clear();
    for (const auto& p : params_) {
      std::vector<PixelPos> pos(p.pixels());
      for (std::uint32_t py = 0; py < p.height; ++py) {
        for (std::uint32_t px = 0; px < p.width; ++px) {
          pos[std::size_t(py) * p.width + px] = PixelPos{
              p.x0() + float(px) * p.dx(), p.y0() + float(py) * p.dy()};
        }
      }
      positions_.push_back(std::move(pos));
    }
    // First build of the program, on a tiny input.
    Timers scratch;
    frame(std::vector<PixelPos>(positions_[0].begin(),
                                positions_[0].begin() + 64),
          params_[0].maxIterations, scratch);
  }

  void computeOracles() override {
    for (const auto& p : params_) {
      reference_.push_back(mandelbrot::computeReference(p).iterations);
    }
  }

  void warmUp() override {
    Timers scratch;
    frame(positions_[0], params_[0].maxIterations, scratch);
  }

  void run(Pass& pass) override {
    outputs_.clear();
    for (std::size_t i = 0; i < params_.size(); ++i) {
      const std::uint64_t t0 = ocl::hostTimeNs();
      ++pass.attempted;
      try {
        outputs_.push_back(
            frame(positions_[i], params_[i].maxIterations, pass.timers));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mandelbrot frame %zu failed: %s\n", i,
                     e.what());
        outputs_.emplace_back();
      }
      pass.latencyNs.push_back(ocl::hostTimeNs() - t0);
    }
  }

  void check(Pass& pass) override {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (outputs_[i] != reference_[i]) {
        std::fprintf(stderr, "mandelbrot frame %zu differs from the "
                             "host reference\n", i);
        ++pass.failed;
      }
    }
  }

private:
  std::vector<std::int32_t> frame(const std::vector<PixelPos>& pos,
                                  std::uint32_t maxIterations,
                                  Timers& timers) {
    skelcl::Vector<PixelPos> input(pos);
    input.setDistribution(skelcl::Distribution::Block);
    skelcl::Arguments args;
    args.push(std::int32_t(maxIterations));
    skelcl::Vector<std::int32_t> out =
        timedCall(timers, [&] { return (*map_)(input, args); });
    return timedHostData(timers, out);
  }

  std::vector<mandelbrot::FractalParams> params_;
  std::unique_ptr<skelcl::Map<PixelPos, std::int32_t>> map_;
  std::vector<std::vector<PixelPos>> positions_;
  std::vector<std::vector<std::int32_t>> reference_;
  std::vector<std::vector<std::int32_t>> outputs_;
};

} // namespace

std::unique_ptr<Workload> makeMandelbrot(std::uint64_t seed, double passSeconds) {
  return std::make_unique<MandelbrotWorkload>(seed, passSeconds);
}

} // namespace perfbench
