// Multi-node cluster simulation: node scaling, interconnect tiers, and
// the energy/cost of each run (DESIGN.md §6j).
//
// Scaling runs R rounds of upload + compute-heavy Map + download over
// `node(t10*2)*N@ib` for N = 1, 2, 4. The two-level block distribution
// splits work across nodes, then across each node's devices; outputs
// must be bit-identical to the single-node run (distribution moves
// chunk boundaries, never results) and 2 nodes must beat 1 by >= 1.3x
// virtual time (the binary exits non-zero otherwise). Each config also
// reports joules and perf-per-watt, read from the trace of its timed
// region (trace::analyze: idle power over the trace span, busy-idle
// power over compute busy time, nJ per DMA byte), and the $-cost of the
// run (cloud-style: a fixed rate per node-hour plus metered energy).
// The timed region is always recorded; under SKELCL_TRACE that same
// recording is the config's trace file, so skeltrace reports the joules
// printed here.
//
// The interconnect comparison runs the same 2-device stencil halo
// exchange on one node (PCIe peer copies), split across two nodes over
// QDR InfiniBand (@ib), and over 10GbE (@eth). Outputs are bit-identical
// in all three; the wire shows up as strictly ordered virtual time
// local <= ib < eth.
//
// Output: human-readable tables plus `BENCH {...}` JSON lines. ctest
// runs `--smoke` under the `perf-smoke;cluster` labels with SKELCL_TRACE
// set; `skeltrace --check-cluster` then audits the 2-node ib halo trace
// (cross-node bytes flowed, energy reconciles per node and device).
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "trace/analysis.h"

namespace {

constexpr double kMinTwoNodeSpeedup = 1.3;
// Cloud-style pricing for the $-cost column: metered energy plus a flat
// per-node rental rate. The absolute numbers are arbitrary; the point is
// that more nodes trade rental dollars for energy-and-time dollars.
constexpr double kUsdPerKwh = 0.12;
constexpr double kUsdPerNodeHour = 2.50;

struct Energy {
  double joules = 0.0;
  double perfPerWatt = 0.0; // kernel cycles per joule
  double costUsd = 0.0;
};

/// Energy of one timed region, from its trace; the rental covers the
/// region's virtual makespan on every node.
Energy energyOf(const trace::Trace& region, std::uint64_t makespanNs,
                std::uint32_t nodes) {
  const trace::Report report = trace::analyze(region);
  const double hours = double(makespanNs) * 1e-9 / 3600.0;
  Energy out;
  out.joules = report.totalEnergyJ;
  out.perfPerWatt = report.perfPerWatt;
  out.costUsd = out.joules / 3.6e6 * kUsdPerKwh +
                double(nodes) * hours * kUsdPerNodeHour;
  return out;
}

struct ScaleResult {
  std::uint64_t virtualNs = 0;
  std::vector<std::vector<float>> outputs; // one per timed round
  Energy energy;
};

struct ScaleWorkload {
  std::size_t n = 0;
  std::size_t launches = 0; // in-place Map launches per round
  std::size_t rounds = 0;   // timed rounds (one calibration round extra)
};

std::vector<float> runRound(skelcl::Map<float>& heavy,
                            const ScaleWorkload& w, std::size_t round) {
  std::vector<float> data(w.n);
  for (std::size_t i = 0; i < w.n; ++i) {
    data[i] = float((i * 31 + round * 11) % 89) * 0.03125f;
  }
  skelcl::Vector<float> v(std::move(data));
  v.setDistribution(skelcl::Distribution::Block);
  for (std::size_t l = 0; l < w.launches; ++l) {
    heavy(v, skelcl::Arguments{}, v);
  }
  return v.hostData();
}

ScaleResult runScale(std::uint32_t nodes, const ScaleWorkload& w,
                     const std::string& traceTag) {
  const std::string spec =
      "node(t10*2)*" + std::to_string(nodes) + "@ib";
  ocl::configureSystem(ocl::SystemConfig::parse(spec));
  skelcl::init(skelcl::DeviceSelection::allDevices());

  ScaleResult out;
  {
    skelcl::Map<float> heavy(
        "float cheavy(float x) {\n"
        "  float acc = x;\n"
        "  for (int i = 0; i < 64; ++i) {\n"
        "    acc = acc * 1.000001f + 0.5f;\n"
        "  }\n"
        "  return acc;\n"
        "}\n");

    // Calibration round, untimed: builds the kernel.
    runRound(heavy, w, /*round=*/w.rounds);
    bench::syncAllDevices();

    trace::Recorder::instance().start();
    const std::uint64_t t0 = ocl::hostTimeNs();
    for (std::size_t r = 0; r < w.rounds; ++r) {
      out.outputs.push_back(runRound(heavy, w, r));
    }
    bench::syncAllDevices();
    out.virtualNs = ocl::hostTimeNs() - t0;
    out.energy = energyOf(bench::stopTrace(traceTag), out.virtualNs, nodes);
  }
  skelcl::terminate();
  return out;
}

struct HaloResult {
  std::uint64_t virtualNs = 0;
  std::vector<float> output;
};

struct HaloWorkload {
  std::size_t rows = 0;
  std::size_t width = 0;
  std::size_t iterations = 0;
};

/// Heat-style 5-point stencil on two devices; every iteration ships one
/// halo row per chunk boundary between them — over PCIe when they share
/// a node, over the simulated interconnect when they do not. The grid
/// is wide and shallow on purpose: a fat halo row and a light kernel
/// put the wire on the critical path, so the tier differences are
/// visible in the makespan instead of hiding behind interior compute.
HaloResult runHalo(const std::string& spec, const HaloWorkload& w,
                   const std::string& traceTag) {
  ocl::configureSystem(ocl::SystemConfig::parse(spec));
  skelcl::init(skelcl::DeviceSelection::allDevices());

  HaloResult out;
  {
    skelcl::Stencil<float> heat(
        "float cheat(__global const float* w, uint st) {\n"
        "  return 0.25f * (w[1] + w[(int)st] + w[(int)st + 2]\n"
        "                  + w[2 * (int)st + 1]);\n"
        "}\n",
        skelcl::StencilShape{1, skelcl::Boundary::Clamp,
                             std::uint32_t(w.width)});

    std::vector<float> grid(w.rows * w.width);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      grid[i] = float((i * 2654435761u) % 1000) / 997.0f;
    }

    { // calibration, untimed
      skelcl::Vector<float> warm(grid);
      warm = heat(warm);
      (void)warm.hostData();
    }
    bench::syncAllDevices();

    trace::Recorder::instance().start();
    const std::uint64_t t0 = ocl::hostTimeNs();
    skelcl::Vector<float> v(grid);
    for (std::size_t it = 0; it < w.iterations; ++it) {
      v = heat(v);
    }
    out.output = v.hostData();
    bench::syncAllDevices();
    out.virtualNs = ocl::hostTimeNs() - t0;
    bench::stopTrace(traceTag);
  }
  skelcl::terminate();
  return out;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  bench::setupCacheDir("cluster");
  bench::traceSpec();

  ScaleWorkload w;
  w.n = std::size_t(double(smoke ? std::size_t(1) << 17
                                 : std::size_t(1) << 18) *
                    bench::scale());
  w.launches = smoke ? 2 : 4;
  w.rounds = smoke ? 2 : 3;

  bench::heading("Cluster scaling: node(t10*2)*N@ib, heavy map rounds");
  const std::uint32_t nodeCounts[] = {1, 2, 4};
  ScaleResult scale[3];
  std::printf("%-8s %14s %9s %10s %14s %12s\n", "nodes", "virtual",
              "speedup", "joules", "cycles/joule", "cost u$");
  for (std::size_t i = 0; i < 3; ++i) {
    scale[i] = runScale(nodeCounts[i], w,
                        "map." + std::to_string(nodeCounts[i]) + "node");
    const double speedup =
        double(scale[0].virtualNs) / double(scale[i].virtualNs);
    std::printf("%-8u %11.3f ms %8.3fx %10.3f %14.3e %12.3f\n",
                nodeCounts[i], double(scale[i].virtualNs) * 1e-6, speedup,
                scale[i].energy.joules, scale[i].energy.perfPerWatt,
                scale[i].energy.costUsd * 1e6);
    bench::BenchJson("cluster_scale")
        .field("nodes", int(nodeCounts[i]))
        .field("elements", std::uint64_t(w.n))
        .field("virtual_ms", double(scale[i].virtualNs) * 1e-6)
        .field("speedup_vs_1node", speedup)
        .field("joules", scale[i].energy.joules)
        .field("perf_per_watt", scale[i].energy.perfPerWatt)
        .field("cost_usd", scale[i].energy.costUsd)
        .print();
  }

  // Shallow grid on purpose: the out-of-order compute engine runs the
  // halo-independent interior launch while a copy is in flight, so the
  // tier only shows once the halo copy outlasts that launch. At 8 rows
  // the interior launch takes ~31 us: the InfiniBand copy (~18 us)
  // lands before it ends, the 10GbE copy (~84 us, 50 us of it latency)
  // does not.
  HaloWorkload hw;
  hw.rows = std::size_t(double(smoke ? 8 : 16) * bench::scale());
  hw.width = 8192;
  hw.iterations = smoke ? 4 : 8;

  bench::heading("Interconnect tiers: 2-device stencil halo exchange");
  struct Tier {
    const char* spec;
    const char* name;
  };
  const Tier tiers[] = {
      {"t10*2", "local"},
      {"node(t10)*2@ib", "ib"},
      {"node(t10)*2@eth", "eth"},
  };
  HaloResult halo[3];
  std::printf("%-8s %-18s %14s %12s\n", "tier", "spec", "virtual",
              "vs local");
  for (std::size_t i = 0; i < 3; ++i) {
    halo[i] = runHalo(tiers[i].spec, hw,
                      "halo." + std::string(tiers[i].name));
    const double slowdown =
        double(halo[i].virtualNs) / double(halo[0].virtualNs);
    std::printf("%-8s %-18s %11.3f ms %11.3fx\n", tiers[i].name,
                tiers[i].spec, double(halo[i].virtualNs) * 1e-6,
                slowdown);
    bench::BenchJson("cluster_interconnect")
        .field("tier", tiers[i].name)
        .field("spec", tiers[i].spec)
        .field("rows", std::uint64_t(hw.rows))
        .field("iterations", std::uint64_t(hw.iterations))
        .field("virtual_ms", double(halo[i].virtualNs) * 1e-6)
        .field("slowdown_vs_local", slowdown)
        .print();
  }

  const bool scaleIdentical = scale[0].outputs == scale[1].outputs &&
                              scale[0].outputs == scale[2].outputs;
  const bool haloIdentical = halo[0].output == halo[1].output &&
                             halo[0].output == halo[2].output;
  const double speedup2 =
      double(scale[0].virtualNs) / double(scale[1].virtualNs);

  bench::BenchJson("cluster_scale")
      .field("mode", "summary")
      .field("speedup_2node", speedup2)
      .field("outputs_identical", scaleIdentical && haloIdentical)
      .print();

  bool ok = true;
  if (!scaleIdentical) {
    std::fprintf(stderr,
                 "\nFAIL: map outputs differ across node counts\n");
    ok = false;
  }
  if (!haloIdentical) {
    std::fprintf(stderr,
                 "\nFAIL: stencil outputs differ across interconnect "
                 "tiers\n");
    ok = false;
  }
  if (speedup2 < kMinTwoNodeSpeedup) {
    std::fprintf(stderr,
                 "\nFAIL: 2-node speedup %.3fx below the %.1fx floor\n",
                 speedup2, kMinTwoNodeSpeedup);
    ok = false;
  }
  if (!(halo[2].virtualNs > halo[1].virtualNs)) {
    std::fprintf(stderr,
                 "\nFAIL: 10GbE halo exchange (%.3f ms) not slower than "
                 "InfiniBand (%.3f ms)\n",
                 double(halo[2].virtualNs) * 1e-6,
                 double(halo[1].virtualNs) * 1e-6);
    ok = false;
  }
  if (halo[1].virtualNs < halo[0].virtualNs) {
    std::fprintf(stderr,
                 "\nFAIL: cross-node halo exchange (%.3f ms) beat the "
                 "single-node run (%.3f ms)\n",
                 double(halo[1].virtualNs) * 1e-6,
                 double(halo[0].virtualNs) * 1e-6);
    ok = false;
  }
  if (!(scale[1].energy.joules > 0.0 &&
        scale[1].energy.perfPerWatt > 0.0 &&
        scale[1].energy.costUsd > 0.0)) {
    std::fprintf(stderr, "\nFAIL: energy shows no recorded activity\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
