// Ablation: expression-DAG kernel fusion vs staged execution.
//
// The runtime change under test is the rewrite pass over the lazy
// expression DAG: map f . map g -> map (f . g), zip absorption of map
// operands, and reduce . map -> mapreduce, all spliced at OpenCL-C
// source level before codegen. SKELCL_FUSION=0 is the differential
// control — the same DAG evaluates stage by stage, each stage compiling
// its own kernel and materializing its intermediate vector.
//
// Two scenarios:
//  * dot-product chain: K dot products sum(mult(a, b)) — the paper's
//    Listing 1 composition. Fused, each collapses to one mapreduce
//    first pass plus one combine pass, never writing the n-element
//    product vector.
//  * saxpy-style map chain: four stacked element-wise stages fused into
//    a single kernel, eliminating three intermediate vectors.
//
// Fusion must strictly win in virtual time and launch fewer kernels,
// with bit-identical outputs (the rewrite splices sources; it never
// reassociates arithmetic). Output: human-readable table plus `BENCH
// {...}` JSON with launch counts and the intermediate bytes each run's
// trace records (every run is recorded; SKELCL_TRACE also keeps the
// file). `--smoke` shrinks sizes; ctest runs it under `perf-smoke` and
// the binary exits non-zero on any violation.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "trace/analysis.h"

namespace {

struct RunResult {
  std::uint64_t virtualNs = 0;
  std::uint64_t kernelLaunches = 0; // summed over every device queue
  skelcl::detail::Runtime::FusionStats stats;
  std::uint64_t intermediateBytes = 0; // from the run's trace
  std::vector<std::vector<float>> outputs;
};

std::uint64_t sumQueueLaunches() {
  auto& runtime = skelcl::detail::Runtime::instance();
  std::uint64_t total = 0;
  for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
    total += runtime.queue(d).cumulativeKernelLaunches();
  }
  return total;
}

void setFusion(bool fused) {
  ::setenv("SKELCL_FUSION", fused ? "1" : "0", 1);
}

/// K dot products with fresh host data per pair; the host only blocks
/// when the K scalars are read at the end.
RunResult runDotChain(bool fused, bool smoke,
                      const std::string& traceTag) {
  setFusion(fused);
  trace::Recorder::instance().start();
  bench::setupSystem(1);

  const std::size_t n = smoke ? std::size_t(1) << 16
                              : std::size_t(1) << 20; // 4 MiB per vector
  const std::size_t pairs = smoke ? 2 : 4;

  RunResult out;
  {
    skelcl::Zip<float> mult(
        "float mult(float x, float y) { return x*y; }");
    skelcl::Reduce<float> sum(
        "float sum(float x, float y) { return x+y; }");

    bench::syncAllDevices();
    const std::uint64_t t0 = ocl::hostTimeNs();

    std::vector<skelcl::Scalar<float>> results;
    for (std::size_t p = 0; p < pairs; ++p) {
      std::vector<float> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = float((i + p) % 31) * 0.25f;
        b[i] = float((i * 7 + p) % 29) * 0.5f;
      }
      skelcl::Vector<float> va(std::move(a));
      skelcl::Vector<float> vb(std::move(b));
      results.push_back(sum(mult(va, vb)));
    }
    std::vector<float> values;
    for (auto& r : results) {
      values.push_back(r.getValue());
    }
    bench::syncAllDevices();

    out.virtualNs = ocl::hostTimeNs() - t0;
    out.kernelLaunches = sumQueueLaunches();
    out.stats = skelcl::detail::Runtime::instance().fusionStats();
    out.outputs.push_back(std::move(values));
  }
  skelcl::terminate();
  out.intermediateBytes =
      trace::analyze(bench::stopTrace(traceTag)).intermediateBytes;
  return out;
}

/// Four stacked element-wise stages over one vector: fused, a single
/// kernel; staged, four kernels and three n-element intermediates.
RunResult runMapChain(bool fused, bool smoke,
                      const std::string& traceTag) {
  setFusion(fused);
  trace::Recorder::instance().start();
  bench::setupSystem(1);

  const std::size_t n = smoke ? std::size_t(1) << 16
                              : std::size_t(1) << 20;

  RunResult out;
  {
    skelcl::Map<float> scale("float scale(float x) { return 2.0f*x; }");
    skelcl::Map<float> shift("float shift(float x) { return x+3.0f; }");
    skelcl::Map<float> damp("float damp(float x) { return x*0.875f; }");
    skelcl::Map<float> bias("float bias(float x) { return x-1.0f; }");

    bench::syncAllDevices();
    const std::uint64_t t0 = ocl::hostTimeNs();

    std::vector<float> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = float(i % 113) * 0.125f;
    }
    skelcl::Vector<float> v(std::move(data));
    skelcl::Vector<float> result = bias(damp(shift(scale(v))));
    out.outputs.push_back(result.hostData());
    bench::syncAllDevices();

    out.virtualNs = ocl::hostTimeNs() - t0;
    out.kernelLaunches = sumQueueLaunches();
    out.stats = skelcl::detail::Runtime::instance().fusionStats();
  }
  skelcl::terminate();
  out.intermediateBytes =
      trace::analyze(bench::stopTrace(traceTag)).intermediateBytes;
  return out;
}

struct Scenario {
  const char* name;
  RunResult (*run)(bool fused, bool smoke, const std::string& traceTag);
};

bool compare(const Scenario& s, bool smoke) {
  const RunResult staged =
      s.run(/*fused=*/false, smoke, std::string(s.name) + ".staged");
  const RunResult fused =
      s.run(/*fused=*/true, smoke, std::string(s.name) + ".fused");

  const bool identical = staged.outputs == fused.outputs;
  const bool fewerLaunches = fused.kernelLaunches < staged.kernelLaunches;
  const bool lessIntermediate =
      fused.intermediateBytes < staged.intermediateBytes;
  const bool timeWin = fused.virtualNs < staged.virtualNs;
  const double ratio =
      double(fused.virtualNs) / double(staged.virtualNs);

  std::printf("%-12s %12.3f ms %12.3f ms   %.3fx   %3llu -> %3llu "
              "launches   %s\n",
              s.name, double(staged.virtualNs) * 1e-6,
              double(fused.virtualNs) * 1e-6, ratio,
              (unsigned long long)staged.kernelLaunches,
              (unsigned long long)fused.kernelLaunches,
              identical ? "identical" : "DIFFER");
  bench::BenchJson("ablation_fusion")
      .field("scenario", s.name)
      .field("staged_ms", double(staged.virtualNs) * 1e-6)
      .field("fused_ms", double(fused.virtualNs) * 1e-6)
      .field("ratio", ratio)
      .field("staged_launches", staged.kernelLaunches)
      .field("fused_launches", fused.kernelLaunches)
      .field("fused_stages", fused.stats.fusedStages)
      .field("staged_intermediate_bytes", staged.intermediateBytes)
      .field("fused_intermediate_bytes", fused.intermediateBytes)
      .field("outputs_identical", identical)
      .print();

  return identical && fewerLaunches && lessIntermediate && timeWin;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  bench::setupCacheDir("ablation-fusion");
  bench::traceSpec();

  const Scenario scenarios[] = {
      {"dot_chain", runDotChain},
      {"map_chain", runMapChain},
  };

  bench::heading("Ablation: fused vs staged DAG execution "
                 "(virtual time)");
  std::printf("%-12s %15s %15s %8s\n", "scenario", "staged", "fused",
              "ratio");
  bool ok = true;
  for (const Scenario& s : scenarios) {
    ok = compare(s, smoke) && ok;
  }
  ::unsetenv("SKELCL_FUSION");

  if (!ok) {
    std::fprintf(stderr,
                 "\nfusion ablation violation: output mismatch, launch "
                 "regression, or virtual-time regression\n");
    return 1;
  }
  return 0;
}
