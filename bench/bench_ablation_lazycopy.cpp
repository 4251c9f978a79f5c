// Ablation A-lazy: Sec. III-A — "This lazy copying minimizes costly data
// transfers between host and device", in particular when "an output
// vector is used as the input to another skeleton".
//
// Compares a chain of skeleton calls with SkelCL's lazy vectors against
// the same chain with forced host round-trips between stages (what a
// naive implementation without device-residency tracking would do).
// Fusion is off in both arms: with it, the lazy arm would also fuse its
// maps into the zip, and that gain is bench_fusion's row.
#include "bench_util.h"

int main() {
  bench::setupCacheDir("lazycopy");
  ::setenv("SKELCL_FUSION", "0", 1);
  bench::setupSystem(1);

  const auto n = std::size_t(double(1 << 18) * bench::scale());
  std::vector<float> data(n, 1.0f);

  skelcl::Map<float> inc("float i(float x) { return x + 1.0f; }");
  skelcl::Zip<float> add("float a(float x, float y) { return x + y; }");
  skelcl::Reduce<float> sum("float s(float x, float y) { return x + y; }");
  const int chainLength = 6;

  bench::heading("Ablation: lazy copying on a " +
                 std::to_string(chainLength) + "-stage skeleton chain (n=" +
                 std::to_string(n) + ")");

  // Lazy (SkelCL semantics): intermediate vectors stay on the device.
  float lazyResult = 0;
  const auto lazyStart = ocl::hostTimeNs();
  {
    skelcl::Vector<float> v(data.data(), n);
    for (int i = 0; i < chainLength; ++i) {
      v = inc(v);
    }
    skelcl::Vector<float> doubled = add(v, v);
    lazyResult = sum(doubled).getValue();
  }
  const double lazyMs = double(ocl::hostTimeNs() - lazyStart) * 1e-6;

  // Eager: force a download + fresh upload between stages.
  float eagerResult = 0;
  const auto eagerStart = ocl::hostTimeNs();
  {
    std::vector<float> host = data;
    for (int i = 0; i < chainLength; ++i) {
      skelcl::Vector<float> v(host.data(), n); // upload
      skelcl::Vector<float> out = inc(v);
      host = out.hostData(); // download
    }
    skelcl::Vector<float> v(host.data(), n);
    skelcl::Vector<float> doubled = add(v, v);
    eagerResult = sum(doubled).getValue();
  }
  const double eagerMs = double(ocl::hostTimeNs() - eagerStart) * 1e-6;

  std::printf("%-24s %14s\n", "variant", "virtual[ms]");
  std::printf("%-24s %14.3f\n", "lazy (SkelCL)", lazyMs);
  std::printf("%-24s %14.3f\n", "eager round-trips", eagerMs);
  std::printf("lazy speedup: %.2fx\n", eagerMs / lazyMs);
  const bool ok = lazyResult == eagerResult && lazyMs < eagerMs;
  std::printf("results agree: %s\n",
              lazyResult == eagerResult ? "yes" : "NO (BUG)");
  skelcl::terminate();
  return ok ? 0 : 1;
}
