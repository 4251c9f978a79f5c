// Irregular workloads on the new skeletons: multi-GPU stencil scaling
// and sparse-gather throughput (DESIGN.md §6i).
//
// Heat diffusion iterates a 2D 5-point stencil over a block-distributed
// grid on 1, 2, and 4 GPUs. Each iteration exchanges one halo row per
// chunk boundary over the DMA engines while the interior — packed and
// launched independently of the exchange — runs on the compute engine,
// so the exchange cost hides behind interior compute and the virtual
// time scales with the per-device share. Outputs must be bit-identical
// across device counts, and 4 GPUs must beat 1 by >= 1.3x virtual time
// (the binary exits non-zero otherwise).
//
// A service-sized stencil (the 16×64 int grid, 3×3 box of the perfbench
// service_mix stencil job) shows the launch-bound regime, where the
// layout rule keeps the grid on one device: it reports the virtual time
// and the kernel launches per call, upload to read-back.
//
// SpMV and PageRank run the SparseGather skeleton over a random CSR
// matrix and report nonzeros processed per virtual second.
//
// Output: human-readable table plus `BENCH {...}` JSON lines. ctest
// runs `--smoke` under the `perf-smoke` label with SKELCL_TRACE set;
// the skeltrace --check entries then assert that the out-of-order heat
// trace overlaps transfers with compute and the SKELCL_SERIALIZE=1
// control does not.
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "trace/analysis.h"

namespace {

constexpr double kMinScalingSpeedup = 1.3;

struct HeatResult {
  std::uint64_t virtualNs = 0;
  std::vector<float> output;
};

struct HeatWorkload {
  std::size_t rows = 0;
  std::size_t width = 0;
  std::size_t iterations = 0;
};

HeatResult runHeat(std::uint32_t gpus, const HeatWorkload& w,
                   const std::string& traceTag) {
  bench::ScopedTrace trace(traceTag);
  bench::setupSystem(gpus);

  HeatResult out;
  {
    skelcl::Stencil<float> heat(
        "float heat(__global const float* w, uint st) {\n"
        "  float acc = 0.25f * (w[1] + w[(int)st] + w[(int)st + 2]\n"
        "                       + w[2 * (int)st + 1]);\n"
        "  for (int k = 0; k < 8; ++k) {\n"
        "    acc = acc * 1.000001f + 0.0000001f;\n"
        "  }\n"
        "  return acc;\n"
        "}\n",
        skelcl::StencilShape{1, skelcl::Boundary::Clamp,
                             std::uint32_t(w.width)});

    std::vector<float> grid(w.rows * w.width);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      grid[i] = float((i * 2654435761u) % 1000) / 997.0f;
    }

    // Calibration pass, untimed: builds the kernels.
    {
      skelcl::Vector<float> warm(grid);
      warm = heat(warm);
      (void)warm.hostData();
    }
    bench::syncAllDevices();

    const std::uint64_t t0 = ocl::hostTimeNs();
    skelcl::Vector<float> v(grid);
    for (std::size_t it = 0; it < w.iterations; ++it) {
      v = heat(v); // fresh output mirrors the layout; data stays on-device
    }
    out.output = v.hostData();
    bench::syncAllDevices();
    out.virtualNs = ocl::hostTimeNs() - t0;
  }
  skelcl::terminate();
  return out;
}

/// A service-sized stencil: a job uploads a small grid, runs one 3×3
/// box stencil, and reads the result back. At this size the per-launch
/// overhead, not the kernels, sets the virtual time per call.
struct BoxResult {
  double virtualUsPerCall = 0.0;
  double launchesPerCall = 0.0;
};

BoxResult runServiceBox(std::uint32_t gpus, std::size_t rows,
                        std::size_t width, std::size_t calls) {
  bench::setupSystem(gpus);
  BoxResult out;
  {
    skelcl::Stencil<int> box(
        "int bbox(__global const int* w, uint st) {\n"
        "  int s = 0;\n"
        "  for (int r = 0; r < 3; ++r) {\n"
        "    for (int c = 0; c < 3; ++c) {\n"
        "      s = s + w[r * (int)st + c];\n"
        "    }\n"
        "  }\n"
        "  return s;\n"
        "}\n",
        skelcl::StencilShape{1, skelcl::Boundary::Clamp, width});
    std::vector<int> grid(rows * width);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      grid[i] = int((i * 2654435761u) % 199) - 99;
    }
    auto call = [&] {
      skelcl::Vector<int> v(grid);
      v.setDistribution(skelcl::Distribution::Block);
      (void)box(v).hostData();
    };
    call(); // calibration, untimed: builds the kernels
    bench::syncAllDevices();

    auto& runtime = skelcl::detail::Runtime::instance();
    auto launches = [&] {
      std::uint64_t total = 0;
      for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
        total += runtime.queue(d).cumulativeKernelLaunches();
      }
      return total;
    };
    const std::uint64_t l0 = launches();
    const std::uint64_t t0 = ocl::hostTimeNs();
    for (std::size_t i = 0; i < calls; ++i) {
      call();
    }
    bench::syncAllDevices();
    out.virtualUsPerCall =
        double(ocl::hostTimeNs() - t0) * 1e-3 / double(calls);
    out.launchesPerCall = double(launches() - l0) / double(calls);
  }
  skelcl::terminate();
  return out;
}

/// Random square CSR matrix with ~`avgDegree` nonzeros per row.
struct Csr {
  std::vector<std::uint32_t> rowPtr;
  std::vector<std::uint32_t> colIdx;
  std::vector<float> values;
};

Csr randomCsr(std::size_t n, int avgDegree, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> degree(0, 2 * avgDegree);
  std::uniform_int_distribution<std::uint32_t> col(0, std::uint32_t(n - 1));
  std::uniform_real_distribution<float> val(-1.0f, 1.0f);
  Csr m;
  m.rowPtr.push_back(0);
  for (std::size_t r = 0; r < n; ++r) {
    const int deg = degree(rng);
    for (int k = 0; k < deg; ++k) {
      m.colIdx.push_back(col(rng));
      m.values.push_back(val(rng));
    }
    m.rowPtr.push_back(std::uint32_t(m.colIdx.size()));
  }
  return m;
}

struct SparseResult {
  std::uint64_t virtualNs = 0;
  std::uint64_t nnzProcessed = 0;
  float checksum = 0.0f;
};

SparseResult runSpmv(std::uint32_t gpus, std::size_t n, int avgDegree,
                     std::size_t iterations) {
  bench::setupSystem(gpus);
  SparseResult out;
  {
    const Csr c = randomCsr(n, avgDegree, 11);
    skelcl::CsrMatrix<float> m(n, n, c.rowPtr, c.colIdx, c.values);
    skelcl::SparseGather<float> spmv(
        "float bspg(float a, float xj) { return a * xj; }",
        "float bspc(float a, float b) { return a + b; }", "0.0f");

    std::vector<float> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = float((i * 97 + 13) % 101) * 0.03125f - 1.5f;
    }

    { // calibration
      skelcl::Vector<float> warm(x);
      (void)spmv(m, warm).hostData();
    }
    bench::syncAllDevices();

    const std::uint64_t t0 = ocl::hostTimeNs();
    skelcl::Vector<float> v(x);
    for (std::size_t it = 0; it < iterations; ++it) {
      v = spmv(m, v);
    }
    const std::vector<float> y = v.hostData();
    bench::syncAllDevices();
    out.virtualNs = ocl::hostTimeNs() - t0;
    out.nnzProcessed = std::uint64_t(c.values.size()) * iterations;
    for (float f : y) {
      out.checksum += f;
    }
  }
  skelcl::terminate();
  return out;
}

SparseResult runPagerank(std::uint32_t gpus, std::size_t n, int avgDegree,
                         std::size_t iterations) {
  bench::setupSystem(gpus);
  SparseResult out;
  {
    Csr c = randomCsr(n, avgDegree, 17);
    // Guarantee no empty columns feed a division by zero: treat the
    // value as the pre-scaled edge weight directly.
    for (float& v : c.values) {
      v = 1.0f / float(avgDegree);
    }
    skelcl::CsrMatrix<float> m(n, n, c.rowPtr, c.colIdx, c.values);
    skelcl::SparseGather<float> gather(
        "float bprg(float w, float r) { return w * r; }",
        "float bprs(float a, float b) { return a + b; }", "0.0f");
    skelcl::Map<float> damp(
        "float bprd(float y, float base, float d) {"
        " return base + d * y; }");
    const float d = 0.85f;
    const float base = (1.0f - d) / float(n);

    { // calibration
      skelcl::Vector<float> warm(std::vector<float>(n, 1.0f / float(n)));
      skelcl::Arguments args;
      args.push(base);
      args.push(d);
      (void)damp(gather(m, warm), args).hostData();
    }
    bench::syncAllDevices();

    const std::uint64_t t0 = ocl::hostTimeNs();
    skelcl::Vector<float> rank(std::vector<float>(n, 1.0f / float(n)));
    for (std::size_t it = 0; it < iterations; ++it) {
      skelcl::Arguments args;
      args.push(base);
      args.push(d);
      rank = damp(gather(m, rank), args);
    }
    const std::vector<float> r = rank.hostData();
    bench::syncAllDevices();
    out.virtualNs = ocl::hostTimeNs() - t0;
    out.nnzProcessed = std::uint64_t(c.values.size()) * iterations;
    for (float f : r) {
      out.checksum += f;
    }
  }
  skelcl::terminate();
  return out;
}

double gnzPerS(const SparseResult& r) {
  return r.virtualNs == 0
             ? 0.0
             : double(r.nnzProcessed) / double(r.virtualNs);
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  bench::setupCacheDir("irregular");
  bench::traceSpec();

  HeatWorkload w;
  w.rows = std::size_t(double(smoke ? 2048 : 4096) * bench::scale());
  w.width = 256;
  w.iterations = smoke ? 4 : 8;

  bench::heading("Heat diffusion: 2D 5-point stencil, halo exchange");
  const std::uint32_t counts[] = {1, 2, 4};
  HeatResult heat[3];
  std::printf("%-8s %14s %9s\n", "gpus", "virtual", "speedup");
  for (std::size_t i = 0; i < 3; ++i) {
    heat[i] = runHeat(counts[i], w,
                      "heat." + std::to_string(counts[i]) + "gpu");
    const double speedup =
        double(heat[0].virtualNs) / double(heat[i].virtualNs);
    std::printf("%-8u %11.3f ms %8.3fx\n", counts[i],
                double(heat[i].virtualNs) * 1e-6, speedup);
    bench::BenchJson("irregular_heat")
        .field("gpus", int(counts[i]))
        .field("rows", std::uint64_t(w.rows))
        .field("width", std::uint64_t(w.width))
        .field("iterations", std::uint64_t(w.iterations))
        .field("virtual_ms", double(heat[i].virtualNs) * 1e-6)
        .field("speedup_vs_1gpu", speedup)
        .print();
  }

  // The serialized control for the trace check: in-order queues cannot
  // hide the halo exchange (or anything else) behind compute.
  if (!bench::traceSpec().empty()) {
    ::setenv("SKELCL_SERIALIZE", "1", 1);
    const HeatResult ser = runHeat(4, w, "heat.ser");
    ::unsetenv("SKELCL_SERIALIZE");
    bench::BenchJson("irregular_heat")
        .field("gpus", 4)
        .field("mode", "serialized")
        .field("virtual_ms", double(ser.virtualNs) * 1e-6)
        .field("outputs_identical", ser.output == heat[2].output)
        .print();
    // Second opinion from the 4-GPU trace itself: halo bytes moved, and
    // some DMA time hid behind compute.
    const trace::Report report = trace::analyze(trace::readTraceFile(
        bench::traceSpec() + ".heat.4gpu.sktrace"));
    std::printf("halo bytes   = %llu   overlap ratio = %.3f\n",
                (unsigned long long)report.haloBytes,
                report.overlapRatio);
    bench::BenchJson("irregular_heat")
        .field("gpus", 4)
        .field("halo_bytes", report.haloBytes)
        .field("overlap_ratio", report.overlapRatio)
        .print();
  }

  bench::heading("Service-sized stencil: 16x64 int grid, 3x3 box, clamp, "
                 "4 GPUs");
  const BoxResult box = runServiceBox(4, 16, 64, smoke ? 8 : 64);
  std::printf("virtual per call = %.3f us   kernel launches per call = "
              "%.1f\n",
              box.virtualUsPerCall, box.launchesPerCall);
  bench::BenchJson("irregular_service_box")
      .field("gpus", 4)
      .field("rows", std::uint64_t(16))
      .field("width", std::uint64_t(64))
      .field("virtual_us_per_call", box.virtualUsPerCall)
      .field("launches_per_call", box.launchesPerCall)
      .print();

  bench::heading("Sparse gather: SpMV and PageRank throughput (4 GPUs)");
  const std::size_t n = std::size_t(double(smoke ? 16384 : 65536) *
                                    bench::scale());
  const SparseResult spmv = runSpmv(4, n, 16, smoke ? 4 : 8);
  const SparseResult pr = runPagerank(4, n, 16, smoke ? 4 : 20);
  std::printf("%-10s %14s %12s\n", "workload", "virtual", "Gnz/s");
  std::printf("%-10s %11.3f ms %12.3f\n", "spmv",
              double(spmv.virtualNs) * 1e-6, gnzPerS(spmv));
  std::printf("%-10s %11.3f ms %12.3f\n", "pagerank",
              double(pr.virtualNs) * 1e-6, gnzPerS(pr));
  bench::BenchJson("irregular_spmv")
      .field("rows", std::uint64_t(n))
      .field("nnz_processed", spmv.nnzProcessed)
      .field("virtual_ms", double(spmv.virtualNs) * 1e-6)
      .field("gnz_per_s", gnzPerS(spmv))
      .print();
  bench::BenchJson("irregular_pagerank")
      .field("rows", std::uint64_t(n))
      .field("nnz_processed", pr.nnzProcessed)
      .field("virtual_ms", double(pr.virtualNs) * 1e-6)
      .field("gnz_per_s", gnzPerS(pr))
      .print();

  bool ok = true;
  if (heat[0].output != heat[1].output ||
      heat[0].output != heat[2].output) {
    std::fprintf(stderr,
                 "\nFAIL: heat outputs differ across device counts\n");
    ok = false;
  }
  const double speedup4 =
      double(heat[0].virtualNs) / double(heat[2].virtualNs);
  if (speedup4 < kMinScalingSpeedup) {
    std::fprintf(stderr,
                 "\nFAIL: 4-GPU stencil speedup %.3fx below the %.1fx "
                 "floor\n",
                 speedup4, kMinScalingSpeedup);
    ok = false;
  }
  if (spmv.virtualNs == 0 || pr.virtualNs == 0) {
    std::fprintf(stderr, "\nFAIL: sparse workloads recorded no time\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
