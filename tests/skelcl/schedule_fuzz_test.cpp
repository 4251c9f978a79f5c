// Schedule fuzzing: the event DAG underdetermines the schedule, so the
// runtime must compute the same answer under every legal tie-break. Each
// scenario here runs once under the Fifo baseline and under >= 8 seeded
// shuffle schedules (SKELCL_SCHEDULE_SEED=N perturbs both the queues'
// dispatch tie-breaking and the skeletons' chunk visit order), asserting
//  * bit-identical outputs,
//  * invariant total kernel cycles (per cumulativeKernelCycles()), and
//  * invariant trace totals: kernel cycles, H2D/D2H bytes, and per-
//    device per-engine busy time (durations are model-computed, so only
//    placement may move — never the amount of work).
// Registered under `ctest -L fuzz`.
#include <functional>
#include <numeric>

#include "common/prng.h"
#include "skelcl_test_util.h"
#include "trace/analysis.h"
#include "trace/recorder.h"

namespace {

using skelcl::Arguments;
using skelcl::Distribution;
using skelcl::Map;
using skelcl::Reduce;
using skelcl::Scan;
using skelcl::Vector;
using skelcl::Zip;

/// Everything a schedule may NOT change about a scenario.
struct Invariants {
  std::vector<float> floats;         // scenario outputs, element order
  std::vector<int> ints;
  std::uint64_t kernelCycles = 0;    // sum over all device queues
  std::uint64_t traceKernelCycles = 0;
  std::uint64_t h2dBytes = 0;
  std::uint64_t d2hBytes = 0;
  // busyNs per (device, engine), flattened.
  std::vector<std::uint64_t> engineBusyNs;

  friend bool operator==(const Invariants& a, const Invariants& b) {
    return a.floats == b.floats && a.ints == b.ints &&
           a.kernelCycles == b.kernelCycles &&
           a.traceKernelCycles == b.traceKernelCycles &&
           a.h2dBytes == b.h2dBytes && a.d2hBytes == b.d2hBytes &&
           a.engineBusyNs == b.engineBusyNs;
  }
};

/// Runs `scenario` in a fresh init()..terminate() cycle on `gpus`
/// devices under the given schedule policy. `seed` == 0 selects the Fifo
/// baseline; any other value selects SeededShuffle(seed).
Invariants runScenario(
    const std::function<void(Invariants&)>& scenario, std::uint32_t gpus,
    std::uint64_t seed) {
  skelcl_test::useTempCacheDir();
  if (seed == 0) {
    ::unsetenv("SKELCL_SCHEDULE_SEED");
  } else {
    ::setenv("SKELCL_SCHEDULE_SEED", std::to_string(seed).c_str(), 1);
  }
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
  trace::Recorder::instance().start();

  Invariants inv;
  scenario(inv);

  auto& runtime = skelcl::detail::Runtime::instance();
  for (std::size_t d = 0; d < skelcl::deviceCount(); ++d) {
    inv.kernelCycles += runtime.queue(d).cumulativeKernelCycles();
  }
  const trace::Trace trace = trace::Recorder::instance().stop();
  const trace::Report report = trace::analyze(trace);
  inv.traceKernelCycles = report.kernelCycles;
  inv.h2dBytes = report.h2dBytes;
  inv.d2hBytes = report.d2hBytes;
  for (const trace::DeviceReport& dev : report.devices) {
    for (std::size_t e = 0; e < ocl::kEngineCount; ++e) {
      inv.engineBusyNs.push_back(dev.engines[e].busyNs);
    }
  }
  skelcl::terminate();
  ::unsetenv("SKELCL_SCHEDULE_SEED");
  return inv;
}

constexpr std::uint64_t kSeeds = 8; // shuffle seeds per scenario

void expectInvariant(const std::function<void(Invariants&)>& scenario,
                     std::uint32_t gpus) {
  runScenario(scenario, gpus, 0); // warm the kernel cache
  const Invariants baseline = runScenario(scenario, gpus, 0);
  ASSERT_GT(baseline.traceKernelCycles, 0u);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Invariants shuffled = runScenario(scenario, gpus, seed);
    EXPECT_EQ(shuffled.floats, baseline.floats) << "seed " << seed;
    EXPECT_EQ(shuffled.ints, baseline.ints) << "seed " << seed;
    EXPECT_EQ(shuffled.kernelCycles, baseline.kernelCycles)
        << "seed " << seed;
    EXPECT_EQ(shuffled.traceKernelCycles, baseline.traceKernelCycles)
        << "seed " << seed;
    EXPECT_EQ(shuffled.h2dBytes, baseline.h2dBytes) << "seed " << seed;
    EXPECT_EQ(shuffled.d2hBytes, baseline.d2hBytes) << "seed " << seed;
    EXPECT_EQ(shuffled.engineBusyNs, baseline.engineBusyNs)
        << "seed " << seed;
  }
}

void mapZipChain(Invariants& inv) {
  Map<float> scale("float sf(float x) { return 1.5f * x + 0.25f; }");
  Zip<float> mix("float mixf(float a, float b) { return a * b + a; }");
  const std::size_t n = 3000;
  std::vector<float> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = float(i % 97) * 0.5f;
    b[i] = float(i % 31) - 7.0f;
  }
  Vector<float> va(a), vb(b);
  va.setDistribution(Distribution::Block);
  Vector<float> out = mix(scale(va), vb);
  inv.floats = out.hostData();
}

void multiGpuBlockMap(Invariants& inv) {
  // Large enough that uploads split into pieces and pipeline.
  Map<float> heavy(
      "float hf(float x) {"
      "  float acc = x;"
      "  for (int k = 0; k < 16; ++k) acc = acc * 1.0001f + 0.5f;"
      "  return acc;"
      "}");
  std::vector<float> data(1 << 15);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = float(i % 1024) * 0.125f;
  }
  Vector<float> input(data);
  input.setDistribution(Distribution::Block);
  Vector<float> out = heavy(input);
  inv.floats = out.hostData();
}

void copyBlockCombine(Invariants& inv) {
  Map<int, void> bump(
      "void bsf(int idx, __global int* data) { data[idx] += idx + 1; }");
  Vector<int> indices = skelcl::indexVector(128);
  indices.setDistribution(Distribution::Block);
  Vector<int> data(128, 0);
  data.setDistribution(Distribution::Copy);
  Arguments args;
  args.push(data);
  bump(indices, args);
  data.dataOnDevicesModified();
  data.setDistribution(Distribution::Block,
                       "int addsf(int a, int b) { return a + b; }");
  inv.ints = data.hostData();
}

void reduceAndScan(Invariants& inv) {
  Reduce<int> sum("int rsum(int a, int b) { return a + b; }");
  Scan<int> scan("int ssum(int a, int b) { return a + b; }", "0");
  std::vector<int> data(4099);
  std::iota(data.begin(), data.end(), 1);
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);
  inv.ints.push_back(sum(input).getValue());
  Vector<int> scanned = scan(input);
  inv.ints.insert(inv.ints.end(), scanned.hostData().begin(),
                  scanned.hostData().end());
}

void dotProduct(Invariants& inv) {
  Reduce<float> sum("float dsum(float x, float y) { return x + y; }");
  Zip<float> mult("float dmul(float x, float y) { return x * y; }");
  common::Xoshiro256 rng(5);
  const std::size_t n = 4096;
  std::vector<float> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = float(rng.nextBelow(16));
    b[i] = float(rng.nextBelow(16));
  }
  Vector<float> va(a), vb(b);
  va.setDistribution(Distribution::Block);
  inv.floats.push_back(sum(mult(va, vb)).getValue());
}

void stencilHalo(Invariants& inv) {
  // 203 rows: not divisible by 2, 3, or 4 devices, so block shares are
  // uneven and every boundary exchanges halos (the grid is wide enough
  // to spread). Wrap makes even the outermost chunks source rows from
  // the opposite end of the grid.
  skelcl::Stencil<float> heat(
      "float fzst(__global const float* w, uint st) {"
      "  return 0.2f * (w[0] + w[1] + w[2]"
      "                 + w[(int)st + 1] + w[2 * (int)st + 1]);"
      "}",
      skelcl::StencilShape{1, skelcl::Boundary::Wrap, 256});
  std::vector<float> grid(203 * 256);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = float((i * 40503u) % 701) * 0.125f;
  }
  Vector<float> v(grid);
  for (int it = 0; it < 2; ++it) {
    v = heat(v);
  }
  inv.floats = v.hostData();
}

void csrDegenerate(Invariants& inv) {
  // Degenerate CSR structure on a prime row count: empty rows, one full
  // row, duplicate columns, in uneven row shares over 4 devices (enough
  // rows to replicate the operand).
  const std::size_t rows = 32771, cols = 19;
  std::vector<std::uint32_t> rowPtr = {0}, colIdx;
  std::vector<int> vals;
  for (std::size_t r = 0; r < rows; ++r) {
    if (r % 6 == 1) {
      // empty row
    } else if (r == 20) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        colIdx.push_back(c);
        vals.push_back(int(c) - 3);
      }
    } else {
      for (int k = 0; k < int(r % 4) + 1; ++k) {
        const std::uint32_t c = (k == 1 && !colIdx.empty())
                                    ? colIdx.back()
                                    : std::uint32_t((r * 13 + k * 5) % cols);
        colIdx.push_back(c);
        vals.push_back(int((r * 3 + k) % 7) - 3);
      }
    }
    rowPtr.push_back(std::uint32_t(colIdx.size()));
  }
  skelcl::CsrMatrix<int> m(rows, cols, rowPtr, colIdx, vals);
  skelcl::SparseGather<int> spmv(
      "int fzg(int a, int xj) { return a * xj; }",
      "int fzc(int a, int b) { return a + b; }", "0");
  std::vector<int> x(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    x[i] = int(i % 13) - 6;
  }
  Vector<int> xs(x);
  inv.ints = spmv(m, xs).hostData();
}

TEST(ScheduleFuzz, MapZipChainIsScheduleInvariant) {
  expectInvariant(mapZipChain, 2);
}

TEST(ScheduleFuzz, MultiGpuBlockMapIsScheduleInvariant) {
  expectInvariant(multiGpuBlockMap, 4);
}

TEST(ScheduleFuzz, CopyBlockCombineIsScheduleInvariant) {
  expectInvariant(copyBlockCombine, 3);
}

TEST(ScheduleFuzz, ReduceAndScanAreScheduleInvariant) {
  expectInvariant(reduceAndScan, 4);
}

TEST(ScheduleFuzz, DotProductIsScheduleInvariant) {
  expectInvariant(dotProduct, 4);
}

TEST(ScheduleFuzz, StencilHaloExchangeIsScheduleInvariant) {
  expectInvariant(stencilHalo, 4);
}

TEST(ScheduleFuzz, CsrDegenerateRowsAreScheduleInvariant) {
  expectInvariant(csrDegenerate, 4);
}

TEST(ScheduleFuzz, ShuffleActuallyPerturbsTheSchedule) {
  // Sanity check on the fuzzer itself: a shuffled schedule must differ
  // from the baseline in *placement* (some command start moves), or the
  // suite would be vacuously green.
  auto spanOf = [](std::uint64_t seed) {
    skelcl_test::useTempCacheDir();
    if (seed == 0) {
      ::unsetenv("SKELCL_SCHEDULE_SEED");
    } else {
      ::setenv("SKELCL_SCHEDULE_SEED", std::to_string(seed).c_str(), 1);
    }
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(2));
    skelcl::init(skelcl::DeviceSelection::nGPUs(2));
    trace::Recorder::instance().start();
    Invariants inv;
    mapZipChain(inv);
    const trace::Trace trace = trace::Recorder::instance().stop();
    skelcl::terminate();
    ::unsetenv("SKELCL_SCHEDULE_SEED");
    std::vector<std::uint64_t> starts;
    for (const auto& cmd : trace.commands) {
      starts.push_back(cmd.startNs);
    }
    return starts;
  };
  spanOf(0); // warm the cache
  const auto fifo = spanOf(0);
  const auto shuffled = spanOf(1);
  EXPECT_NE(fifo, shuffled)
      << "SeededShuffle produced the exact FIFO schedule";
}

TEST(ScheduleFuzz, SeedKnobSelectsThePolicy) {
  // Unset or empty: FIFO. A number N: the seeded shuffle N.
  auto policyFor = [](const char* value) {
    skelcl_test::useTempCacheDir();
    if (value == nullptr) {
      ::unsetenv("SKELCL_SCHEDULE_SEED");
    } else {
      ::setenv("SKELCL_SCHEDULE_SEED", value, 1);
    }
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
    skelcl::init(skelcl::DeviceSelection::nGPUs(1));
    const ocl::SchedulePolicy policy =
        skelcl::detail::Runtime::instance().schedulePolicy();
    skelcl::terminate();
    ::unsetenv("SKELCL_SCHEDULE_SEED");
    return policy;
  };
  using Kind = ocl::SchedulePolicy::Kind;
  EXPECT_EQ(policyFor(nullptr).kind, Kind::Fifo);
  const ocl::SchedulePolicy seeded = policyFor("7");
  EXPECT_EQ(seeded.kind, Kind::SeededShuffle);
  EXPECT_EQ(seeded.seed, 7u);
  EXPECT_EQ(policyFor("0").kind, Kind::SeededShuffle);
  EXPECT_EQ(policyFor("").kind, Kind::Fifo);
}

// Any other value makes init() throw naming it, so a fuzz run never
// believes it explores seed N while it runs FIFO.
TEST(ScheduleFuzz, UnparsableSeedIsATypedError) {
  skelcl_test::useTempCacheDir();
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
  for (const char* value : {"shuffle", "12abc", "7.5"}) {
    ::setenv("SKELCL_SCHEDULE_SEED", value, 1);
    try {
      skelcl::init(skelcl::DeviceSelection::nGPUs(1));
      ADD_FAILURE() << "init() accepted SKELCL_SCHEDULE_SEED=" << value;
      skelcl::terminate();
    } catch (const common::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(skelcl::detail::Runtime::instance().initialized());
  }
  ::unsetenv("SKELCL_SCHEDULE_SEED");
  skelcl::init(skelcl::DeviceSelection::nGPUs(1));
  EXPECT_EQ(skelcl::deviceCount(), 1u);
  skelcl::terminate();
}

TEST(ScheduleFuzz, SerializedControlHasZeroOverlap) {
  // SKELCL_SERIALIZE=1 is the suite's control: in-order queues leave no
  // tie to break and transfers never hide behind compute.
  skelcl_test::useTempCacheDir();
  ::setenv("SKELCL_SERIALIZE", "1", 1);
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(2));
  skelcl::init(skelcl::DeviceSelection::nGPUs(2));
  trace::Recorder::instance().start();
  Invariants inv;
  multiGpuBlockMap(inv);
  const trace::Trace trace = trace::Recorder::instance().stop();
  skelcl::terminate();
  ::unsetenv("SKELCL_SERIALIZE");
  const trace::Report report = trace::analyze(trace);
  EXPECT_EQ(report.overlapRatio, 0.0);
  EXPECT_GT(report.kernelCycles, 0u);
}

} // namespace
