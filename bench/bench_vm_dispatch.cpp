// Interpreter dispatch throughput: O0 vs O2 bytecode on the same launches.
//
// The optimizer's contract is "host-side speedup only": per-launch
// simulated cycles must be identical across levels while the dynamic
// instruction count (and with it wall-clock time) drops. This bench
// measures instructions/second for
//
//   * a barrier-free hot kernel (the mandelbrot inner loop, which takes
//     the VM's straight-line fast path),
//   * a barrier-heavy tree reduction (round-robin scheduled), and
//   * many small launches of a map kernel, one 256-item work-group each,
//     the shape of the job service's jobs: per-launch and per-item setup
//     dominate there, so it also reports launches/second.
//
// It verifies the invariants and reports the O2 speedup. Each level's
// time is the median of kRuns runs, O0 and O2 alternating.
//
// Output: human-readable lines plus machine-readable `BENCH {...}` JSON
// lines, one object per measurement.
//
// `--smoke` shrinks the workload to seconds-free sizes and checks only
// the invariants (cycles and outputs identical); ctest runs that mode
// under the `perf-smoke` label.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clc/codegen.h"
#include "clc/opt.h"
#include "clc/vm.h"
#include "common/stopwatch.h"

namespace {

std::string readRepoFile(const std::string& relative) {
  const std::string path =
      std::string(SKELCL_REPRO_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

const char* kReduceSource = R"(
__kernel void reduce(__global float* out, __global const float* in,
                     __local float* tmp) {
  int lid = (int)get_local_id(0);
  int gid = (int)get_global_id(0);
  int lsz = (int)get_local_size(0);
  tmp[lid] = in[gid];
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = lsz / 2; s > 0; s /= 2) {
    if (lid < s) {
      tmp[lid] = tmp[lid] + tmp[lid + s];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (lid == 0) {
    out[gid / lsz] = tmp[0];
  }
}
)";

/// Runs per level; each level's time is their median.
constexpr int kRuns = 5;

struct Workload {
  std::string name;
  std::string kernel;
  std::string source;
  clc::NDRange range;
  std::vector<clc::KernelArgValue> args;
  std::vector<std::vector<std::uint8_t>> buffers; // pristine inputs
  int launches = 1; // per timed run
};

/// One optimization level of a workload: its program, the stats and
/// buffers of a first launch, and the duration of each timed run.
struct Level {
  clc::Program program;
  clc::LaunchStats stats;                         // of one launch
  std::vector<std::vector<std::uint8_t>> buffers; // after that launch
  std::vector<double> seconds;

  double medianSeconds() const {
    std::vector<double> sorted = seconds;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }
};

std::vector<clc::Segment> segmentsOf(
    std::vector<std::vector<std::uint8_t>>& buffers) {
  std::vector<clc::Segment> segments;
  for (auto& b : buffers) {
    segments.push_back(clc::Segment{b.data(), b.size()});
  }
  return segments;
}

Level prepare(const Workload& w, clc::OptLevel level) {
  Level l;
  l.program = clc::compile(w.source);
  clc::optimize(l.program, level);
  // Warm-up launch; it also produces the buffers for the output check.
  l.buffers = w.buffers;
  l.stats = clc::executeKernel(l.program, w.kernel, w.range, w.args,
                               segmentsOf(l.buffers), nullptr);
  return l;
}

/// Times w.launches launches on fresh copies of the inputs. Every
/// workload's kernel writes its outputs from its inputs alone, so the
/// launches can share one copy.
void timeRun(const Workload& w, Level& l) {
  auto buffers = w.buffers;
  const std::vector<clc::Segment> segments = segmentsOf(buffers);
  common::Stopwatch timer;
  for (int i = 0; i < w.launches; ++i) {
    (void)clc::executeKernel(l.program, w.kernel, w.range, w.args, segments,
                             nullptr);
  }
  l.seconds.push_back(timer.elapsedSeconds());
}

clc::KernelArgValue bufferArg(std::uint32_t segmentIndex) {
  clc::KernelArgValue arg;
  arg.kind = clc::KernelArgValue::Kind::Buffer;
  arg.segmentIndex = segmentIndex;
  return arg;
}

clc::KernelArgValue scalarI32(std::int32_t v) {
  clc::KernelArgValue arg;
  arg.scalar = std::uint64_t(std::int64_t(v));
  return arg;
}

clc::KernelArgValue scalarF32(float v) {
  clc::KernelArgValue arg;
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  arg.scalar = bits;
  return arg;
}

Workload mandelbrotWorkload(bool smoke) {
  Workload w;
  w.name = "mandelbrot (barrier-free)";
  w.kernel = "mandelbrot";
  w.source = readRepoFile("src/mandelbrot/kernels/mandelbrot_opencl.cl");
  const int width = smoke ? 32 : 192;
  const int height = smoke ? 16 : 128;
  const int maxIter = smoke ? 32 : 256;
  w.range.dims = 2;
  w.range.globalSize[0] = std::size_t(width);
  w.range.globalSize[1] = std::size_t(height);
  w.range.localSize[0] = 16;
  w.range.localSize[1] = 8;
  w.buffers.emplace_back(std::size_t(width) * height * 4, 0xff);
  w.args = {bufferArg(0),
            scalarI32(width),
            scalarI32(height),
            scalarF32(-2.0f),
            scalarF32(-1.0f),
            scalarF32(3.0f / float(width)),
            scalarF32(2.0f / float(height)),
            scalarI32(maxIter)};
  w.launches = smoke ? 1 : 3;
  return w;
}

Workload reduceWorkload(bool smoke) {
  Workload w;
  w.name = "tree reduction (barrier-heavy)";
  w.kernel = "reduce";
  w.source = kReduceSource;
  const std::size_t n = smoke ? 1024 : 1 << 16;
  const std::size_t local = 64;
  w.range.dims = 1;
  w.range.globalSize[0] = n;
  w.range.localSize[0] = local;
  std::vector<float> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = float(i % 97) * 0.5f - 10.0f;
  }
  std::vector<std::uint8_t> inBytes(n * 4);
  std::memcpy(inBytes.data(), in.data(), inBytes.size());
  w.buffers.emplace_back(n / local * 4, 0);
  w.buffers.push_back(std::move(inBytes));
  clc::KernelArgValue localArg;
  localArg.kind = clc::KernelArgValue::Kind::Local;
  localArg.localSize = std::uint32_t(local * 4);
  w.args = {bufferArg(0), bufferArg(1), localArg};
  w.launches = smoke ? 1 : 3;
  return w;
}

const char* kMapSource = R"(
__kernel void scale_shift(__global float* out, __global const float* in,
                          float a, float b) {
  size_t i = get_global_id(0);
  out[i] = a * in[i] + b;
}
)";

Workload smallLaunchWorkload(bool smoke) {
  Workload w;
  w.name = "small launches (one 256-item group each)";
  w.kernel = "scale_shift";
  w.source = kMapSource;
  const std::size_t n = 256;
  w.range.dims = 1;
  w.range.globalSize[0] = n;
  w.range.localSize[0] = n;
  std::vector<float> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = float(i % 31) * 0.25f - 3.0f;
  }
  std::vector<std::uint8_t> inBytes(n * 4);
  std::memcpy(inBytes.data(), in.data(), inBytes.size());
  w.buffers.emplace_back(n * 4, 0);
  w.buffers.push_back(std::move(inBytes));
  w.args = {bufferArg(0), bufferArg(1), scalarF32(1.5f), scalarF32(-0.5f)};
  w.launches = smoke ? 1 : 4000;
  return w;
}

/// Runs one workload at O0 and O2, checks the invariants, and prints the
/// comparison (timings only outside smoke mode). Returns false on an
/// invariant violation.
bool compare(const Workload& w, bool smoke) {
  Level o0 = prepare(w, clc::OptLevel::O0);
  Level o2 = prepare(w, clc::OptLevel::O2);

  const bool sameOutput = o0.buffers == o2.buffers;
  const bool sameCycles =
      o0.stats.totalCycles == o2.stats.totalCycles &&
      o0.stats.globalBytesRead == o2.stats.globalBytesRead &&
      o0.stats.globalBytesWritten == o2.stats.globalBytesWritten &&
      o0.stats.barrierWaits == o2.stats.barrierWaits;

  std::printf("\n=== %s ===\n", w.name.c_str());
  if (!smoke) {
    for (int run = 0; run < kRuns; ++run) {
      timeRun(w, o0);
      timeRun(w, o2);
    }
    const double launches = double(w.launches);
    for (int level = 0; level <= 2; level += 2) {
      const Level& l = level == 0 ? o0 : o2;
      const double seconds = l.medianSeconds();
      const double ips = double(l.stats.instructions) * launches / seconds;
      const double lps = launches / seconds;
      std::printf("  O%d: %10llu instr/launch  %8.3f s  %12.0f instr/s  "
                  "%10.0f launches/s\n",
                  level, (unsigned long long)l.stats.instructions, seconds,
                  ips, lps);
      bench::BenchJson("vm_dispatch")
          .field("kernel", w.kernel)
          .field("opt", level)
          .field("instructions_per_launch",
                 std::uint64_t(l.stats.instructions))
          .field("launches", std::uint64_t(w.launches))
          .field("seconds", seconds)
          .field("instr_per_sec", ips)
          .field("launches_per_sec", lps)
          .field("total_cycles", std::uint64_t(l.stats.totalCycles))
          .print();
    }
    std::printf("  wall-clock speedup O2/O0: %.2fx (median of %d runs)\n",
                o0.medianSeconds() / o2.medianSeconds(), kRuns);
  }
  std::printf("  simulated cycles: %llu (O0) vs %llu (O2) -> %s\n",
              (unsigned long long)o0.stats.totalCycles,
              (unsigned long long)o2.stats.totalCycles,
              sameCycles ? "invariant" : "VIOLATION");
  std::printf("  outputs bit-identical: %s\n", sameOutput ? "yes" : "NO");

  bench::BenchJson summary("vm_dispatch");
  summary.field("kernel", w.kernel);
  if (!smoke) {
    summary.field("speedup_o2", o0.medianSeconds() / o2.medianSeconds());
  }
  summary.field("cycles_invariant", sameCycles)
      .field("outputs_identical", sameOutput)
      .print();

  return sameOutput && sameCycles;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  bool ok = true;
  ok = compare(mandelbrotWorkload(smoke), smoke) && ok;
  ok = compare(reduceWorkload(smoke), smoke) && ok;
  ok = compare(smallLaunchWorkload(smoke), smoke) && ok;

  if (!ok) {
    std::fprintf(stderr, "\ninvariant violation: O0 and O2 disagree\n");
    return 1;
  }
  return 0;
}
