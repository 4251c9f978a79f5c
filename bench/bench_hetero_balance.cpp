// Heterogeneous load balancing: a skewed machine against a uniform one
// of the same size (DESIGN.md §6e).
//
// The skewed platform is `t10*3,t10@0.5x` — three full-speed Tesla T10s
// plus one running at half clock and half memory bandwidth; the
// baseline is the uniform `t10*4`. The workload is R rounds of: upload a
// fresh block-distributed vector, run a compute-heavy Map k times in
// place, download the result. Block weights are each device's peak
// throughput, so the skewed machine splits 2:2:2:1 and the half-speed
// device does not hold every round up; its 3.5 devices' worth of
// compute should take at most 1.2x the uniform machine's time (4/3.5 =
// 1.14x is the ideal).
//
// Each machine gets one untimed warm-up round first, which builds the
// kernel. Outputs must be bit-identical across the machines — weights
// move chunk boundaries, never results. Each machine's whole run is
// traced, and its compute load imbalance is the one `skeltrace`
// reports for that trace.
//
// Output: human-readable table plus `BENCH {...}` JSON lines. ctest
// runs `--smoke` under the `perf-smoke` label; the binary exits
// non-zero if the outputs differ or the skewed machine takes more than
// 1.2x the uniform machine's virtual time.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "trace/analysis.h"

namespace {

constexpr const char* kUniformSpec = "t10*4";
constexpr const char* kSkewedSpec = "t10*3,t10@0.5x";
constexpr double kMaxSkewedRatio = 1.2;

struct MachineResult {
  std::uint64_t virtualNs = 0;
  double imbalance = 0.0; // compute load imbalance of the run's trace
  std::vector<std::vector<float>> outputs;  // one per timed round
  std::vector<std::size_t> steadyPartition; // chunk sizes, last round
};

struct Workload {
  std::size_t n = 0;
  std::size_t launches = 0; // in-place Map launches per round
  std::size_t rounds = 0;   // timed rounds (one warm-up round extra)
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

MachineResult runMachine(const char* spec, const Workload& w,
                         const std::string& traceTag) {
  trace::Recorder::instance().start();
  ocl::configureSystem(ocl::SystemConfig::parse(spec));
  skelcl::init(skelcl::DeviceSelection::allDevices());

  MachineResult out;
  {
    skelcl::Map<float> heavy(
        "float heavy(float x) {\n"
        "  float acc = x;\n"
        "  for (int i = 0; i < 64; ++i) {\n"
        "    acc = acc * 1.000001f + 0.5f;\n"
        "  }\n"
        "  return acc;\n"
        "}\n");

    // Warm-up round, untimed: builds the kernel.
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
  out.imbalance =
      trace::analyze(bench::stopTrace(traceTag)).computeImbalance;
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

  bench::heading(std::string("Heterogeneous balance: ") + kSkewedSpec +
                 " vs " + kUniformSpec);

  struct Machine {
    const char* spec;
    const char* tag;
  };
  const Machine machines[] = {{kUniformSpec, "uniform"},
                              {kSkewedSpec, "skewed"}};

  std::printf("%-16s %14s %11s %10s   %s\n", "machine", "virtual",
              "vs uniform", "imbalance", "steady partition");
  MachineResult results[2];
  for (std::size_t m = 0; m < 2; ++m) {
    results[m] = runMachine(machines[m].spec, w, machines[m].tag);
    const double ratio =
        double(results[m].virtualNs) / double(results[0].virtualNs);
    std::printf("%-16s %11.3f ms %10.3fx %10.3f   %s\n", machines[m].spec,
                double(results[m].virtualNs) * 1e-6, ratio,
                results[m].imbalance,
                partitionString(results[m].steadyPartition).c_str());
    bench::BenchJson("hetero_balance")
        .field("machine", machines[m].spec)
        .field("virtual_ms", double(results[m].virtualNs) * 1e-6)
        .field("ratio_vs_uniform", ratio)
        .field("compute_imbalance", results[m].imbalance)
        .field("partition", partitionString(results[m].steadyPartition))
        .print();
  }

  const bool identical = results[0].outputs == results[1].outputs;
  const double skewedRatio =
      double(results[1].virtualNs) / double(results[0].virtualNs);
  bench::BenchJson("hetero_balance")
      .field("machine", "summary")
      .field("skewed_vs_uniform", skewedRatio)
      .field("outputs_identical", identical)
      .print();

  bool ok = true;
  if (!identical) {
    std::fprintf(stderr, "\nFAIL: outputs differ across machines\n");
    ok = false;
  }
  if (skewedRatio > kMaxSkewedRatio) {
    std::fprintf(stderr,
                 "\nFAIL: %s takes %.3fx the uniform time, above %.1fx\n",
                 kSkewedSpec, skewedRatio, kMaxSkewedRatio);
    ok = false;
  }
  return ok ? 0 : 1;
}
