// Reproduces Figure 1 of the paper: runtime and program size of the
// Mandelbrot application in CUDA, OpenCL, and SkelCL.
//
// Paper (Tesla T10, 4096x3072): CUDA 18 s, OpenCL 25 s, SkelCL 26 s;
// program sizes CUDA 49 LoC (28 kernel + 21 host), OpenCL 118 (28 + 90),
// SkelCL 57 (26 + 31).
//
// The simulated runtimes are virtual seconds at a reduced image size
// (SKELCL_BENCH_SCALE enlarges it; `--paper-size` runs the paper's
// 4096x3072 image at 64 iterations, about 20 s on a 4-core host);
// the comparison of interest is the *shape*: who wins and by roughly what
// factor.
#include <cstring>

#include "bench_util.h"

#include "cuda/runtime.h"
#include "mandelbrot/mandelbrot.h"

int main(int argc, char** argv) {
  const bool paperSize = argc > 1 && std::strcmp(argv[1], "--paper-size") == 0;
  bench::setupCacheDir("mandelbrot");
  bench::setupSystem(1);
  cuda::reset();

  mandelbrot::FractalParams params = mandelbrot::FractalParams::benchSize();
  const double s = bench::scale();
  params.width = std::uint32_t(double(params.width) * s);
  params.height = std::uint32_t(double(params.height) * s);
  if (paperSize) {
    params = mandelbrot::FractalParams::paperSize();
  }

  bench::heading("Figure 1: Mandelbrot (" + std::to_string(params.width) +
                 "x" + std::to_string(params.height) + ", " +
                 std::to_string(params.maxIterations) + " iterations)");

  // Verify all implementations agree before timing them.
  const auto reference = mandelbrot::computeReference(params);

  struct Row {
    const char* label;
    mandelbrot::FractalResult result;
    double paperSeconds;
  };
  std::vector<Row> rows;
  rows.push_back({"CUDA", mandelbrot::computeCuda(params), 18.0});
  rows.push_back({"OpenCL", mandelbrot::computeOpenCl(params), 25.0});
  rows.push_back({"SkelCL", mandelbrot::computeSkelCl(params), 26.0});

  bench::subheading("runtime");
  std::printf("%-8s %14s %14s %12s %12s\n", "impl", "virtual[ms]",
              "wall[ms]", "vs CUDA", "paper[s]");
  const double cudaVirtual = rows[0].result.virtualSeconds;
  bool allMatch = true;
  for (const auto& row : rows) {
    allMatch &= row.result.iterations == reference.iterations;
    std::printf("%-8s %14.3f %14.3f %11.2fx %12.1f\n", row.label,
                row.result.virtualSeconds * 1e3,
                row.result.wallSeconds * 1e3,
                row.result.virtualSeconds / cudaVirtual, row.paperSeconds);
  }
  std::printf("results identical across implementations: %s\n",
              allMatch ? "yes" : "NO (BUG)");
  const double overhead =
      rows[2].result.virtualSeconds / rows[1].result.virtualSeconds - 1.0;
  std::printf("SkelCL overhead vs OpenCL: %+.1f%% (paper: +4%%, claimed "
              "< 5%%)\n",
              overhead * 100.0);

  bench::subheading("program size (lines of code)");
  std::printf("%-8s %8s %8s %8s %22s\n", "impl", "kernel", "host", "total",
              "paper (kernel+host)");
  const char* paperLoc[] = {"49 (28+21)", "118 (28+90)", "57 (26+31)"};
  int i = 0;
  for (const auto& entry : mandelbrot::locEntries()) {
    const std::size_t kernel = bench::fileLoc(entry.kernelFile);
    const std::size_t host = bench::fileLoc(entry.hostFile);
    std::printf("%-8s %8zu %8zu %8zu %22s\n", entry.label.c_str(), kernel,
                host, kernel + host, paperLoc[i++]);
  }

  skelcl::terminate();
  return allMatch ? 0 : 1;
}
