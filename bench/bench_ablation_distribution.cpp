// Ablation A-dist: Sec. IV-B — "the additional argument feature and the
// data distributions are crucial for this application as it cannot be
// implemented efficiently without these two features."
//
// Compares SkelCL's device-side copy->block combine redistribution (the
// OSEM error-image merge) against the naive alternative: downloading
// every copy to the host, merging there, and re-uploading the blocks.
// Exits non-zero unless both merges are correct and the device-side one
// takes less virtual time.
#include "bench_util.h"

#include <numeric>

int main() {
  bench::setupCacheDir("distribution");
  const std::uint32_t gpus = 4;
  bench::setupSystem(gpus);

  const auto n = std::size_t(double(1 << 18) * bench::scale());
  const char* addSource = "float add(float x, float y) { return x + y; }";

  bench::heading(
      "Ablation: error-image merge strategies (copy -> block, " +
      std::to_string(gpus) + " GPUs, n=" + std::to_string(n) + ")");

  skelcl::Map<int, void> bump(
      "void b(int idx, __global float* data, uint n) {"
      "  uint chunk = (n + 511) / 512;"
      "  uint start = (uint)idx * chunk;"
      "  uint end = min(start + chunk, n);"
      "  for (uint i = start; i < end; ++i) data[i] += 1.0f;"
      "}");

  const auto makeModifiedCopies = [&](skelcl::Vector<float>& v) {
    v.fill(0.0f);
    v.setDistribution(skelcl::Distribution::Copy);
    skelcl::Vector<int> idx = skelcl::indexVector(512);
    idx.setDistribution(skelcl::Distribution::Block);
    skelcl::Arguments args;
    args.push(v);
    args.pushSizeOf(v);
    bump(idx, args);
    v.dataOnDevicesModified();
    // The merge clocks below start once the copies exist; without this
    // the device-side arm would also time the bump kernel.
    bench::syncAllDevices();
  };

  // Device-side combine (what SkelCL's setDistribution(Block, op) does).
  skelcl::Vector<float> a(n, 0.0f);
  makeModifiedCopies(a);
  const auto deviceStart = ocl::hostTimeNs();
  a.setDistribution(skelcl::Distribution::Block, addSource);
  bench::syncAllDevices();
  const double deviceMs = double(ocl::hostTimeNs() - deviceStart) * 1e-6;

  // Host-staged merge: download all copies, add on the host, re-upload.
  skelcl::Vector<float> b(n, 0.0f);
  makeModifiedCopies(b);
  const auto hostStart = ocl::hostTimeNs();
  std::vector<float> merged(n, 0.0f);
  {
    auto& runtime = skelcl::detail::Runtime::instance();
    std::vector<float> staging(n);
    for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
      const auto& chunk = b.state().chunkForDevice(d);
      runtime.queue(d).enqueueReadBuffer(chunk.buffer, 0,
                                         n * sizeof(float),
                                         staging.data(),
                                         /*blocking=*/true);
      for (std::size_t i = 0; i < n; ++i) {
        merged[i] += staging[i];
      }
    }
  }
  skelcl::Vector<float> hostMerged(merged.data(), n);
  hostMerged.setDistribution(skelcl::Distribution::Block);
  hostMerged.state().ensureOnDevices();
  bench::syncAllDevices();
  const double hostMs = double(ocl::hostTimeNs() - hostStart) * 1e-6;

  // Correctness: every element was bumped by exactly one worker on
  // exactly one device; the other copies contribute zero, so the merged
  // value is 1 everywhere under either strategy.
  bool correct = true;
  for (std::size_t i = 0; i < n; i += n / 64 + 1) {
    correct &= a[i] == 1.0f;
    correct &= hostMerged[i] == 1.0f;
  }

  std::printf("%-36s %14s\n", "merge strategy", "virtual[ms]");
  std::printf("%-36s %14.3f\n", "device-side combine (SkelCL)", deviceMs);
  std::printf("%-36s %14.3f\n", "host-staged merge", hostMs);
  std::printf("device-side advantage: %.2fx\n", hostMs / deviceMs);
  std::printf("results correct: %s\n", correct ? "yes" : "NO (BUG)");
  // Sec. IV-B's claim: the device-side combine beats staging the copies
  // through the host.
  const bool faster = deviceMs < hostMs;
  std::printf("device-side combine faster: %s\n", faster ? "yes" : "NO");
  skelcl::terminate();
  return correct && faster ? 0 : 1;
}
