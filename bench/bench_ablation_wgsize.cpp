// Ablation A-wgsize: the paper notes (Sec. IV-A) that "it is sometimes
// reasonable to also hand-optimize the work-group size in SkelCL, since
// it can have a considerable impact on performance." Sweeps the Map
// skeleton's work-group size on the Mandelbrot workload.
#include "bench_util.h"

#include "mandelbrot/mandelbrot.h"

int main() {
  bench::setupCacheDir("wgsize");
  bench::setupSystem(1);

  mandelbrot::FractalParams params = mandelbrot::FractalParams::benchSize();
  params.width = std::uint32_t(double(params.width) * bench::scale());

  bench::heading("Ablation: work-group size sweep (Mandelbrot via SkelCL)");
  std::printf("%-8s %14s %12s\n", "wg", "virtual[ms]", "vs default");

  const auto reference = mandelbrot::computeSkelCl(params); // wg = 256
  const double defaultMs = reference.virtualSeconds * 1e3;

  for (const std::size_t wg : {16, 32, 64, 128, 256, 512}) {
    const auto result =
        wg == 256 ? reference : mandelbrot::computeSkelCl(params, wg);
    if (result.iterations != reference.iterations) {
      std::printf("wg=%zu produced different pixels (BUG)\n", wg);
      return 1;
    }
    std::printf("%-8zu %14.3f %11.2fx%s\n", wg,
                result.virtualSeconds * 1e3,
                result.virtualSeconds * 1e3 / defaultMs,
                wg == 256 ? "  (SkelCL default)" : "");
  }
  skelcl::terminate();
  return 0;
}
