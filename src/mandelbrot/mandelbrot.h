// Mandelbrot case study (paper Sec. IV-A).
//
// Three parallel implementations of the same fractal computation — CUDA,
// OpenCL, and SkelCL — mirroring the paper's comparison of programming
// effort (lines of code) and runtime. All three produce bit-identical
// iteration counts; tests enforce that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mandelbrot {

/// The fractal viewport and iteration budget.
struct FractalParams {
  std::uint32_t width = 4096;
  std::uint32_t height = 3072;
  float centerX = -0.75f;
  float centerY = 0.0f;
  float viewWidth = 3.5f; // complex-plane width covered by the image
  std::uint32_t maxIterations = 64;

  /// The paper's evaluation size (4096 x 3072 pixels).
  static FractalParams paperSize() { return FractalParams{}; }

  /// A reduced size suitable for interpreted execution and tests. The
  /// iteration budget is raised so the compute:transfer ratio resembles
  /// the paper's full-size run (where compute dominates); see
  /// EXPERIMENTS.md.
  static FractalParams benchSize() {
    FractalParams p;
    p.width = 384;
    p.height = 288;
    p.maxIterations = 256;
    return p;
  }

  float x0() const { return centerX - viewWidth / 2.0f; }
  float y0() const {
    return centerY - viewWidth * float(height) / float(width) / 2.0f;
  }
  float dx() const { return viewWidth / float(width); }
  float dy() const {
    return viewWidth * float(height) / float(width) / float(height);
  }
  std::size_t pixels() const {
    return std::size_t(width) * std::size_t(height);
  }
};

/// Result of one run: per-pixel iteration counts plus both clocks.
struct FractalResult {
  std::vector<std::int32_t> iterations;
  double virtualSeconds = 0; // simulated device/host time
  double wallSeconds = 0;    // real time spent interpreting
};

/// Host reference implementation (single-threaded C++).
FractalResult computeReference(const FractalParams& params);

/// CUDA-style implementation (cuda:: veneer, one GPU).
FractalResult computeCuda(const FractalParams& params);

/// Plain OpenCL-style implementation (ocl:: host API, one GPU), with all
/// the boilerplate a real OpenCL host program carries.
FractalResult computeOpenCl(const FractalParams& params);

/// SkelCL implementation (Map skeleton over a vector of pixel
/// coordinates). `workGroupSize` 0 = SkelCL default (256 once a device
/// holds at least 30 x 256 pixels). Expects skelcl::init() to have
/// happened.
FractalResult computeSkelCl(const FractalParams& params,
                            std::size_t workGroupSize = 0);

/// Writes a PPM image colored by iteration count (for the example app).
void writePpm(const std::string& path, const FractalParams& params,
              const std::vector<std::int32_t>& iterations);

/// Source files whose LoC reproduce the paper's program-size figure.
struct LocEntry {
  std::string label;
  std::string kernelFile; // counted as "kernel function"
  std::string hostFile;   // counted as "host program"
};
std::vector<LocEntry> locEntries();

} // namespace mandelbrot
