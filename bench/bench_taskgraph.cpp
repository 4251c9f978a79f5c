// Ablation: asynchronous task-graph scheduling vs consumption-ordered
// evaluation.
//
// The runtime change under test is the drain-based scheduler: the first
// consumption point dispatches every outstanding independent job before
// issuing its own blocking wait, so the commands of N independent
// skeleton chains sit in the per-device command queues together and
// pipeline. SKELCL_ASYNC=0 is the differential control: the same lazy
// DAG, but each job's commands are enqueued only when its own value is
// read, so every device drains between jobs.
//
// Scenario: N independent dot products sum(mult(a, b)) — the paper's
// Listing 1 composition, N times over fresh data — each pinned to GPU
// p % 4 of the paper's four-GPU Tesla S1070. Synchronous evaluation
// leaves three GPUs idle while the consumed job's GPU finishes; the
// scheduler dispatches all N jobs at the first read, so the four GPUs
// crunch concurrently. The bench asserts, at N=4, >= 1.3x virtual-time
// throughput for async with bit-identical scalars; at N=1 it asserts
// *exactly* equal virtual time (a single-job drain degenerates to the
// synchronous force). Jobs dispatched and peak concurrency are read
// from each run's trace (every run is recorded; SKELCL_TRACE also keeps
// the file). Output: human-readable table plus `BENCH {...}` JSON.
// `--smoke` shrinks sizes; ctest runs it under `perf-smoke` and the
// binary exits non-zero on any violation.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "trace/analysis.h"

namespace {

struct RunResult {
  std::uint64_t virtualNs = 0;
  std::uint64_t jobsDispatched = 0;
  std::uint64_t maxConcurrent = 0;
  std::vector<float> values;
};

/// N independent dot products with fresh host data per pair, job p
/// pinned to GPU p % deviceCount; every job is registered before the
/// first scalar is read.
RunResult runDotJobs(bool async, std::size_t jobs, std::size_t n,
                     const std::string& traceTag) {
  ::setenv("SKELCL_ASYNC", async ? "1" : "0", 1);
  trace::Recorder::instance().start();
  bench::setupSystem(4);

  RunResult out;
  {
    skelcl::Zip<float> mult(
        "float tg_mult(float x, float y) { return x*y; }");
    skelcl::Reduce<float> sum(
        "float tg_sum(float x, float y) { return x+y; }");

    bench::syncAllDevices();
    const std::uint64_t t0 = ocl::hostTimeNs();

    std::vector<skelcl::Scalar<float>> results;
    for (std::size_t p = 0; p < jobs; ++p) {
      std::vector<float> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = float((i + p) % 31) * 0.25f;
        b[i] = float((i * 7 + p) % 29) * 0.5f;
      }
      skelcl::Vector<float> va(std::move(a));
      skelcl::Vector<float> vb(std::move(b));
      const std::size_t gpu =
          p % skelcl::detail::Runtime::instance().deviceCount();
      va.setDistribution(skelcl::Distribution::Single, gpu);
      vb.setDistribution(skelcl::Distribution::Single, gpu);
      results.push_back(sum(mult(va, vb)));
    }
    for (auto& r : results) {
      out.values.push_back(r.getValue());
    }
    bench::syncAllDevices();

    out.virtualNs = ocl::hostTimeNs() - t0;
  }
  skelcl::terminate();
  const trace::Report report = trace::analyze(bench::stopTrace(traceTag));
  out.jobsDispatched = report.schedulerJobs;
  out.maxConcurrent = report.maxConcurrentJobs;
  return out;
}

bool compare(std::size_t jobs, std::size_t n, double minSpeedup,
             bool mustMatchExactly) {
  const std::string tag = "taskgraph_n" + std::to_string(jobs);
  const RunResult sync =
      runDotJobs(/*async=*/false, jobs, n, tag + ".sync");
  const RunResult async =
      runDotJobs(/*async=*/true, jobs, n, tag + ".async");

  const bool identical =
      sync.values.size() == async.values.size() &&
      std::memcmp(sync.values.data(), async.values.data(),
                  sync.values.size() * sizeof(float)) == 0;
  const double speedup = double(sync.virtualNs) / double(async.virtualNs);
  const bool timeOk = mustMatchExactly
                          ? sync.virtualNs == async.virtualNs
                          : speedup >= minSpeedup;

  std::printf("N=%-4zu %12.3f ms %12.3f ms   %.3fx   %llu dispatched, "
              "%llu concurrent   %s\n",
              jobs, double(sync.virtualNs) * 1e-6,
              double(async.virtualNs) * 1e-6, speedup,
              (unsigned long long)async.jobsDispatched,
              (unsigned long long)async.maxConcurrent,
              identical ? "identical" : "DIFFER");
  bench::BenchJson("ablation_taskgraph")
      .field("jobs", jobs)
      .field("elements", n)
      .field("sync_ms", double(sync.virtualNs) * 1e-6)
      .field("async_ms", double(async.virtualNs) * 1e-6)
      .field("speedup", speedup)
      .field("jobs_dispatched", async.jobsDispatched)
      .field("max_concurrent", async.maxConcurrent)
      .field("outputs_identical", identical)
      .print();

  return identical && timeOk;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  bench::setupCacheDir("ablation-taskgraph");
  bench::traceSpec();

  const std::size_t n =
      smoke ? std::size_t(1) << 14 : std::size_t(1) << 17;

  bench::heading("Ablation: async task graph vs consumption-ordered "
                 "evaluation (virtual time)");
  std::printf("%-6s %15s %15s %9s\n", "", "sync", "async", "speedup");

  bool ok = true;
  // A single job must be *exactly* the synchronous schedule.
  ok = compare(/*jobs=*/1, n, 1.0, /*mustMatchExactly=*/true) && ok;
  // Four independent jobs must pipeline: >= 1.3x throughput.
  ok = compare(/*jobs=*/4, n, 1.3, /*mustMatchExactly=*/false) && ok;
  if (!smoke) {
    ok = compare(/*jobs=*/8, n, 1.3, /*mustMatchExactly=*/false) && ok;
  }
  ::unsetenv("SKELCL_ASYNC");

  if (!ok) {
    std::fprintf(stderr,
                 "\ntaskgraph ablation violation: output mismatch, lost "
                 "single-job invariance, or speedup below threshold\n");
    return 1;
  }
  return 0;
}
