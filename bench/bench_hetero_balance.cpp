// Heterogeneous load balancing: even vs static vs measured block
// weights on a skewed machine (DESIGN.md §6e).
//
// The platform is `t10*3,t10@0.5x` — three full-speed Tesla T10s plus
// one running at half clock and half memory bandwidth. The workload is
// R rounds of: upload a fresh block-distributed vector, run a compute-
// heavy Map k times in place, download the result. Under `even`
// weights every device gets n/4 elements and each round waits for the
// half-speed straggler; `static` splits by DeviceSpec peak throughput
// (2:2:2:1) up front; `measured` starts from the even fallback and
// converges to the same split from each device's observed
// cycles-per-busy-ns (its ocl::DeviceState totals).
//
// Every mode gets one untimed calibration round first: it builds the
// kernel, and under `measured` it gives the totals one sample per
// device (the convergence the hetero test suite pins). The timed
// rounds then compare steady-state behaviour. Outputs must be bit-
// identical across modes — weights move chunk boundaries, never
// results.
//
// Output: human-readable table plus `BENCH {...}` JSON lines. ctest
// runs `--smoke` under the `perf-smoke` label; the binary exits
// non-zero if measured fails to beat even by the 1.3x acceptance
// floor, or outputs differ across modes.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using skelcl::WeightMode;

constexpr const char* kPlatformSpec = "t10*3,t10@0.5x";
constexpr double kMinMeasuredSpeedup = 1.3;

struct ModeResult {
  std::uint64_t virtualNs = 0;
  std::vector<std::vector<float>> outputs;   // one per timed round
  std::vector<std::size_t> steadyPartition;  // chunk sizes, last round
};

struct Workload {
  std::size_t n = 0;
  std::size_t launches = 0; // in-place Map launches per round
  std::size_t rounds = 0;   // timed rounds (one calibration round extra)
};

/// One round: fresh host data (deterministic per round index), block
/// distribution, `launches` in-place heavy maps, download.
std::vector<float> runRound(skelcl::Map<float>& heavy, const Workload& w,
                            std::size_t round,
                            std::vector<std::size_t>* partitionOut) {
  std::vector<float> data(w.n);
  for (std::size_t i = 0; i < w.n; ++i) {
    data[i] = float((i * 13 + round * 7) % 97) * 0.0625f;
  }
  skelcl::Vector<float> v(std::move(data));
  v.setDistribution(skelcl::Distribution::Block);
  for (std::size_t l = 0; l < w.launches; ++l) {
    heavy(v, skelcl::Arguments{}, v);
  }
  if (partitionOut) {
    partitionOut->clear();
    for (const auto& chunk : v.state().chunks()) {
      partitionOut->push_back(chunk.count);
    }
  }
  return v.hostData();
}

ModeResult runMode(WeightMode mode, const Workload& w,
                   const std::string& traceTag) {
  bench::ScopedTrace trace(traceTag);
  ocl::configureSystem(ocl::SystemConfig::parse(kPlatformSpec));
  skelcl::init(skelcl::DeviceSelection::allDevices());
  skelcl::detail::Runtime::instance().setWeightMode(mode);

  ModeResult out;
  {
    skelcl::Map<float> heavy(
        "float heavy(float x) {\n"
        "  float acc = x;\n"
        "  for (int i = 0; i < 64; ++i) {\n"
        "    acc = acc * 1.000001f + 0.5f;\n"
        "  }\n"
        "  return acc;\n"
        "}\n");

    // Calibration round, untimed: kernel build plus (under measured)
    // one measured sample per device.
    runRound(heavy, w, /*round=*/w.rounds, nullptr);
    bench::syncAllDevices();

    const std::uint64_t t0 = ocl::hostTimeNs();
    for (std::size_t r = 0; r < w.rounds; ++r) {
      out.outputs.push_back(runRound(
          heavy, w, r, r + 1 == w.rounds ? &out.steadyPartition : nullptr));
    }
    bench::syncAllDevices();
    out.virtualNs = ocl::hostTimeNs() - t0;
  }
  skelcl::terminate();
  return out;
}

std::string partitionString(const std::vector<std::size_t>& counts) {
  std::string s;
  for (std::size_t c : counts) {
    if (!s.empty()) {
      s += "/";
    }
    s += std::to_string(c);
  }
  return s;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  bench::setupCacheDir("hetero-balance");
  bench::traceSpec();

  // Chunks must oversubscribe the 30 compute units (30 CUs x 256-item
  // work-groups = 7680 elements) by a few x, or kernel duration stops
  // depending on chunk size and no split can help the straggler.
  Workload w;
  w.n = smoke ? std::size_t(1) << 17 : std::size_t(1) << 18;
  w.launches = smoke ? 1 : 4;
  w.rounds = smoke ? 2 : 4;

  bench::heading("Heterogeneous balance: block weight modes on " +
                 std::string(kPlatformSpec));

  struct Mode {
    WeightMode mode;
    const char* name;
  };
  const Mode modes[] = {
      {WeightMode::Even, "even"},
      {WeightMode::Static, "static"},
      {WeightMode::Measured, "measured"},
  };

  std::printf("%-10s %14s %9s   %s\n", "mode", "virtual", "vs even",
              "steady partition");
  ModeResult results[3];
  for (std::size_t m = 0; m < 3; ++m) {
    results[m] = runMode(modes[m].mode, w, modes[m].name);
    const double speedup =
        double(results[0].virtualNs) / double(results[m].virtualNs);
    std::printf("%-10s %11.3f ms %8.3fx   %s\n", modes[m].name,
                double(results[m].virtualNs) * 1e-6, speedup,
                partitionString(results[m].steadyPartition).c_str());
    bench::BenchJson("hetero_balance")
        .field("mode", modes[m].name)
        .field("virtual_ms", double(results[m].virtualNs) * 1e-6)
        .field("speedup_vs_even", speedup)
        .field("partition", partitionString(results[m].steadyPartition))
        .print();
  }

  const bool identical = results[0].outputs == results[1].outputs &&
                         results[0].outputs == results[2].outputs;
  const double staticSpeedup =
      double(results[0].virtualNs) / double(results[1].virtualNs);
  const double measuredSpeedup =
      double(results[0].virtualNs) / double(results[2].virtualNs);
  // Measured must converge to (roughly) the static split: the fastest
  // device's steady chunk strictly larger than the slow device's.
  const auto& mp = results[2].steadyPartition;
  const bool converged = mp.size() == 4 && mp.front() > mp.back();

  bench::BenchJson("hetero_balance")
      .field("mode", "summary")
      .field("speedup_static", staticSpeedup)
      .field("speedup_measured", measuredSpeedup)
      .field("outputs_identical", identical)
      .field("measured_converged", converged)
      .print();

  bool ok = true;
  if (!identical) {
    std::fprintf(stderr, "\nFAIL: outputs differ across weight modes\n");
    ok = false;
  }
  if (!converged) {
    std::fprintf(stderr, "\nFAIL: measured weights did not converge "
                         "(partition %s)\n",
                 partitionString(mp).c_str());
    ok = false;
  }
  if (measuredSpeedup < kMinMeasuredSpeedup) {
    std::fprintf(stderr,
                 "\nFAIL: measured speedup %.3fx below the %.1fx floor\n",
                 measuredSpeedup, kMinMeasuredSpeedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
