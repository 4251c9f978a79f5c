// Differential suite for the Stencil skeleton: exact host oracles for
// every radius (1..3) × boundary policy (clamp/wrap/constant) × shape
// (1D, row-major 2D) combination, on 1, 2, and 4 devices, in both
// layouts the placement rule picks from (a small grid on one device, a
// wide one in row-aligned blocks); bit-identity of an iterated float
// stencil across device counts, heterogeneous SKELCL_DEVICES specs,
// shuffled schedules, async-off, fusion-off and serialized queues; the
// degenerate-geometry regressions (chunks smaller than the halo radius,
// one-row chunks whose halos wrap, empty input, sizes not divisible by
// the device count); the launch count per call; the recorded layout
// decisions and their forecasts; and typed-error recovery with a fault
// aimed at the halo-exchange copy itself.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "skelcl_test_util.h"
#include "trace/analysis.h"
#include "trace/recorder.h"

namespace {

using ocl::FaultInjector;
using skelcl::Boundary;
using skelcl::Distribution;
using skelcl::Stencil;
using skelcl::StencilShape;
using skelcl::Vector;

// --- host oracles (exact: int arithmetic, same accumulation order as
// the generated kernels: row-major over the window) ----------------------

int resolveIndex(long g, long n, Boundary b, bool* constant) {
  *constant = false;
  switch (b) {
    case Boundary::Wrap:
      if (g < 0) g += n;
      if (g >= n) g -= n;
      return int(g);
    case Boundary::Constant:
      if (g < 0 || g >= n) {
        *constant = true;
        return 0;
      }
      return int(g);
    default:
      if (g < 0) g = 0;
      if (g >= n) g = n - 1;
      return int(g);
  }
}

std::vector<int> oracle1D(const std::vector<int>& in, int radius,
                          Boundary b, int cval) {
  const long n = long(in.size());
  std::vector<int> out(in.size());
  for (long i = 0; i < n; ++i) {
    int s = 0;
    for (int k = -radius; k <= radius; ++k) {
      bool c = false;
      const int g = resolveIndex(i + k, n, b, &c);
      s += c ? cval : in[std::size_t(g)];
    }
    out[std::size_t(i)] = s;
  }
  return out;
}

std::vector<int> oracle2D(const std::vector<int>& in, std::size_t width,
                          int radius, Boundary b, int cval) {
  const long rows = long(in.size() / width);
  const long cols = long(width);
  std::vector<int> out(in.size());
  for (long r = 0; r < rows; ++r) {
    for (long c = 0; c < cols; ++c) {
      int s = 0;
      for (int dr = -radius; dr <= radius; ++dr) {
        for (int dc = -radius; dc <= radius; ++dc) {
          bool rc = false;
          bool cc = false;
          const int rr = resolveIndex(r + dr, rows, b, &rc);
          const int gc = resolveIndex(c + dc, cols, b, &cc);
          s += (rc || cc) ? cval
                          : in[std::size_t(rr) * width + std::size_t(gc)];
        }
      }
      out[std::size_t(r) * width + std::size_t(c)] = s;
    }
  }
  return out;
}

std::string sum1DSource(int radius) {
  const int w = 2 * radius + 1;
  return "int ssum(__global const int* w) {\n"
         "  int s = 0;\n"
         "  for (int i = 0; i < " + std::to_string(w) + "; ++i) {\n"
         "    s = s + w[i];\n"
         "  }\n"
         "  return s;\n"
         "}\n";
}

std::string sum2DSource(int radius) {
  const int w = 2 * radius + 1;
  return "int ssum2(__global const int* w, uint st) {\n"
         "  int s = 0;\n"
         "  for (int r = 0; r < " + std::to_string(w) + "; ++r) {\n"
         "    for (int c = 0; c < " + std::to_string(w) + "; ++c) {\n"
         "      s = s + w[r * (int)st + c];\n"
         "    }\n"
         "  }\n"
         "  return s;\n"
         "}\n";
}

std::vector<int> randomInts(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(-100, 100);
  std::vector<int> v(n);
  for (int& x : v) {
    x = dist(rng);
  }
  return v;
}

constexpr Boundary kPolicies[] = {Boundary::Clamp, Boundary::Wrap,
                                  Boundary::Constant};

/// Checks every radius and policy against the oracle, each call in the
/// `layout` the placement rule must pick for it (Block: row-aligned
/// blocks).
void expectOracle1D(std::size_t n, unsigned seed, Distribution layout) {
  const std::vector<int> data = randomInts(n, seed);
  for (int radius = 1; radius <= 3; ++radius) {
    for (Boundary b : kPolicies) {
      Vector<int> in(data);
      Stencil<int> st(sum1DSource(radius),
                      StencilShape{std::size_t(radius), b, 0}, /*cval=*/7);
      Vector<int> out = st(in);
      EXPECT_EQ(out.distribution(), layout)
          << "1D radius=" << radius << " policy=" << int(b);
      const std::vector<int> want = oracle1D(data, radius, b, 7);
      ASSERT_EQ(out.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(out[i], want[i])
            << "1D radius=" << radius << " policy=" << int(b) << " i=" << i;
      }
    }
  }
}

void expectOracle2D(std::size_t rows, std::size_t width, unsigned seed,
                    Distribution layout) {
  const std::vector<int> data = randomInts(rows * width, seed);
  for (int radius = 1; radius <= 3; ++radius) {
    for (Boundary b : kPolicies) {
      Vector<int> in(data);
      Stencil<int> st(sum2DSource(radius),
                      StencilShape{std::size_t(radius), b, width},
                      /*cval=*/-3);
      Vector<int> out = st(in);
      EXPECT_EQ(out.distribution(), layout)
          << "2D radius=" << radius << " policy=" << int(b);
      const std::vector<int> want = oracle2D(data, width, radius, b, -3);
      ASSERT_EQ(out.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(out[i], want[i])
            << "2D radius=" << radius << " policy=" << int(b) << " i=" << i;
      }
    }
  }
}

class StencilOneDevice : public skelcl_test::SkelclFixture {
public:
  StencilOneDevice() : SkelclFixture(1) {}
};
class StencilTwoDevices : public skelcl_test::SkelclFixture {
public:
  StencilTwoDevices() : SkelclFixture(2) {}
};
class StencilFourDevices : public skelcl_test::SkelclFixture {
public:
  StencilFourDevices() : SkelclFixture(4) {}
};

TEST_F(StencilOneDevice, MatchesOracleEveryRadiusAndPolicy) {
  expectOracle1D(257, 11, Distribution::Single);
  expectOracle2D(19, 10, 12, Distribution::Single);
}

// Small grids run on one device: launch overhead outweighs the split.
// The wide ones spread, and 65539 elements / 37 rows do not divide
// evenly by 2 or 4: the largest-remainder partition produces unequal
// row-aligned chunks.
TEST_F(StencilTwoDevices, MatchesOracleEveryRadiusAndPolicy) {
  expectOracle1D(1003, 21, Distribution::Single);
  expectOracle2D(37, 10, 22, Distribution::Single);
  expectOracle1D(65539, 23, Distribution::Block);
  expectOracle2D(37, 1024, 24, Distribution::Block);
}

TEST_F(StencilFourDevices, MatchesOracleEveryRadiusAndPolicy) {
  expectOracle1D(1003, 31, Distribution::Single);
  expectOracle2D(37, 10, 32, Distribution::Single);
  expectOracle1D(65539, 34, Distribution::Block);
  expectOracle2D(37, 1024, 35, Distribution::Block);
  // 4 rows per device: radius 1 leaves an interior launch, radius 2
  // makes every chunk pure border (rows == 2R), and radius 3 gives
  // chunks with R <= rows < 2R whose two border ranges overlap.
  expectOracle2D(16, 4096, 33, Distribution::Block);
}

// --- launch structure ------------------------------------------------------

/// Kernel launches across all devices while evaluating one stencil call,
/// which must run in `layout`.
std::uint64_t launchesForOneCall(std::size_t rows, std::size_t width,
                                 Boundary b, Distribution layout) {
  auto& runtime = skelcl::detail::Runtime::instance();
  auto launches = [&] {
    std::uint64_t total = 0;
    for (std::size_t d = 0; d < skelcl::deviceCount(); ++d) {
      total += runtime.queue(d).cumulativeKernelLaunches();
    }
    return total;
  };
  Vector<int> in(randomInts(rows * width, 81));
  Stencil<int> st(sum2DSource(1), StencilShape{1, b, width}, 5);
  const std::uint64_t before = launches();
  Vector<int> out = st(in);
  (void)out[0];
  EXPECT_EQ(out.distribution(), layout);
  return launches() - before;
}

// Each device packs once and computes in an interior plus a border
// launch; a chunk without a halo packs and computes in one launch each.
TEST_F(StencilFourDevices, ThreeLaunchesPerDeviceWithHalo) {
  EXPECT_EQ(launchesForOneCall(32, 2048, Boundary::Clamp, Distribution::Block),
            12u);
  EXPECT_EQ(launchesForOneCall(32, 2048, Boundary::Wrap, Distribution::Block),
            12u);
}

TEST_F(StencilOneDevice, TwoLaunchesWithoutHalo) {
  EXPECT_EQ(launchesForOneCall(32, 8, Boundary::Clamp, Distribution::Single),
            2u);
  EXPECT_EQ(
      launchesForOneCall(32, 8, Boundary::Constant, Distribution::Single), 2u);
}

// A service-sized grid costs less on one device than the twelve
// launches and six halo copies of row-aligned blocks: it packs and
// computes in two launches.
TEST_F(StencilFourDevices, SmallGridRunsOnOneDeviceInTwoLaunches) {
  EXPECT_EQ(launchesForOneCall(16, 64, Boundary::Clamp, Distribution::Single),
            2u);
}

// --- staging ---------------------------------------------------------------

/// DMA bytes all devices moved while one clamp stencil call over `in`
/// staged its grid, exchanged halos, and downloaded its result, which
/// must run in `layout`.
std::uint64_t dmaBytesForOneCall(Vector<int>& in, std::size_t width,
                                 Distribution layout = Distribution::Block) {
  Stencil<int> st(sum2DSource(1), StencilShape{1, Boundary::Clamp, width});
  const std::uint64_t before = skelcl_test::totalDmaBytes();
  Vector<int> out = st(in);
  (void)out[0]; // downloads the whole result
  EXPECT_EQ(out.distribution(), layout);
  return skelcl_test::totalDmaBytes() - before;
}

// The grid crosses PCIe once, already in the row-aligned layout the
// evaluation reads: one upload and one download of the grid, plus both
// legs (source D2H, destination H2D) of the two halos at each of the
// three device boundaries. 13 rows do not split on element boundaries
// into whole rows, and a fresh vector defaults to a single device.
TEST_F(StencilFourDevices, InputIsStagedOnceInItsRowAlignedLayout) {
  const std::size_t width = 2048;
  const std::uint64_t haloLegs = 3 * 2 * 2 * (width + 2) * sizeof(int);

  Vector<int> uneven(randomInts(13 * width, 91));
  uneven.setDistribution(skelcl::Distribution::Block);
  EXPECT_EQ(dmaBytesForOneCall(uneven, width),
            2 * 13 * width * sizeof(int) + haloLegs);

  Vector<int> fresh(randomInts(16 * width, 92));
  EXPECT_EQ(dmaBytesForOneCall(fresh, width),
            2 * 16 * width * sizeof(int) + haloLegs);
}

// A still-pending input is placed at evaluation, after its producer ran
// where its own input lived: a fresh vector's Map runs on device 0. A
// service-sized grid then stays there, and the call moves only its
// result download.
TEST_F(StencilFourDevices, PendingInputIsPlacedAtEvaluation) {
  const std::size_t width = 64;
  const std::uint64_t grid = 16 * width * sizeof(int);

  skelcl::Map<int> inc("int inc_pin(int x) { return x + 1; }");
  Vector<int> fresh(randomInts(16 * width, 93));
  Vector<int> pending = inc(fresh);
  const std::uint64_t first =
      dmaBytesForOneCall(pending, width, Distribution::Single);
  EXPECT_EQ(first, grid);
  EXPECT_EQ(first, 4096u);
  EXPECT_EQ(dmaBytesForOneCall(pending, width, Distribution::Single), grid);
}

// A grid whose kernel work outweighs the move spreads off device 0: the
// row-aligned layout costs a download of the Map result and its
// re-upload in blocks, where a concrete grid costs one upload. This pins
// that host round trip; a change that moves the result device-to-device
// must update the pin on purpose.
TEST_F(StencilFourDevices, PendingWideInputPaysAHostRoundTrip) {
  const std::size_t width = 4096;
  const std::uint64_t grid = 32 * width * sizeof(int);
  const std::uint64_t haloLegs = 3 * 2 * 2 * (width + 2) * sizeof(int);
  skelcl::Map<int> inc("int inc_pin(int x) { return x + 1; }");
  Vector<int> fresh(randomInts(32 * width, 94));
  Vector<int> pending = inc(fresh);
  const std::uint64_t first =
      dmaBytesForOneCall(pending, width, Distribution::Block);
  EXPECT_EQ(first, 3 * grid + haloLegs);
  EXPECT_EQ(first, 1769568u);
  // The grid now stays resident in its row-aligned layout.
  EXPECT_EQ(dmaBytesForOneCall(pending, width, Distribution::Block),
            grid + haloLegs);
}

// Iterated stencils chain through the expression DAG (each step's input
// is the previous deferred result); the chunks stay resident on-device
// between steps.
TEST_F(StencilFourDevices, IteratedStencilMatchesIteratedOracle) {
  const std::size_t width = 1024;
  std::vector<int> data = randomInts(96 * width, 41);
  Vector<int> v(data);
  Stencil<int> st(sum2DSource(1), StencilShape{1, Boundary::Clamp, width});
  for (int step = 0; step < 4; ++step) {
    v = st(v);
    data = oracle2D(data, width, 1, Boundary::Clamp, 0);
  }
  EXPECT_EQ(v.distribution(), Distribution::Block);
  ASSERT_EQ(v.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(v[i], data[i]) << i;
  }
}

// --- degenerate geometry -------------------------------------------------

// Fewer rows than radius on some device: 5 rows over 4 devices gives
// per-device shares below radius 3 — row-aligned blocks cannot run the
// call (a halo would be wider than a chunk), so it runs on one device.
TEST_F(StencilFourDevices, ChunkSmallerThanHaloFallsBackToSingleDevice) {
  const std::vector<int> data = randomInts(5 * 4, 51);
  for (Boundary b : kPolicies) {
    Vector<int> in(data);
    Stencil<int> st(sum2DSource(3), StencilShape{3, b, 4}, 9);
    Vector<int> out = st(in);
    EXPECT_EQ(out.distribution(), Distribution::Single);
    const std::vector<int> want = oracle2D(data, 4, 3, b, 9);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(out[i], want[i]) << "policy=" << int(b) << " i=" << i;
    }
  }
}

/// The layout decisions one call records: name, and the multi-device
/// and single-device forecasts it carries (`value`, `value2`).
struct Layout {
  std::string name;
  std::uint64_t multiNs, singleNs;
};

std::vector<Layout> layoutsOf(const std::function<void()>& call) {
  trace::Recorder::instance().start();
  call();
  const trace::Trace t = trace::Recorder::instance().stop();
  std::vector<Layout> layouts;
  for (const trace::HostSpanRecord& h : t.hostSpans) {
    if (h.kind == trace::HostKind::Decision) {
      layouts.push_back({t.str(h.name), h.value, h.value2});
    }
  }
  EXPECT_EQ(trace::analyze(t).decisions.size(), 1u); // one name per call
  return layouts;
}

/// The one layout decision of a clamp stencil over a fresh
/// `rows` x `width` grid.
Layout stencilLayout(std::size_t rows, std::size_t width, std::size_t radius) {
  Vector<int> in(randomInts(rows * width, 53));
  Stencil<int> st(sum2DSource(int(radius)),
                  StencilShape{radius, Boundary::Clamp, width});
  const std::vector<Layout> layouts = layoutsOf([&] {
    Vector<int> out = st(in);
    (void)out[0];
  });
  EXPECT_EQ(layouts.size(), 1u);
  return layouts.empty() ? Layout{} : layouts.front();
}

/// The one layout decision of a clamp stencil of radius 1 running the
/// float window function `source` over a `rows` x `width` grid.
Layout heatLayout(const std::string& source, std::size_t rows,
                  std::size_t width) {
  Vector<float> in(std::vector<float>(rows * width, 0.5f));
  Stencil<float> st(source, StencilShape{1, Boundary::Clamp, width});
  const std::vector<Layout> layouts = layoutsOf([&] {
    Vector<float> out = st(in);
    (void)out[0];
  });
  EXPECT_EQ(layouts.size(), 1u);
  return layouts.empty() ? Layout{} : layouts.front();
}

/// The one layout decision of an SpMV over `rows` rows of four nonzeros.
Layout sparseLayout(std::size_t rows) {
  std::vector<std::uint32_t> rowPtr, colIdx;
  for (std::uint32_t r = 0; r <= rows; ++r) {
    rowPtr.push_back(4 * r);
  }
  for (std::uint32_t r = 0; r < 4 * rows; ++r) {
    colIdx.push_back((r * 7) % std::uint32_t(rows));
  }
  skelcl::CsrMatrix<int> m(rows, rows, rowPtr, colIdx,
                           std::vector<int>(4 * rows, 2));
  skelcl::SparseGather<int> spmv("int lg(int a, int xj) { return a * xj; }",
                                 "int lc(int a, int b) { return a + b; }",
                                 "0");
  Vector<int> x(std::vector<int>(rows, 1));
  const std::vector<Layout> layouts = layoutsOf([&] {
    Vector<int> y = spmv(m, x);
    EXPECT_EQ(y[0], 8);
  });
  EXPECT_EQ(layouts.size(), 1u);
  return layouts.empty() ? Layout{} : layouts.front();
}

// The evaluation records the layout it chose, with the forecast finish
// of each candidate: row-aligned blocks for a wide grid; one device for
// a service-sized one, where launches outweigh the split, and for one
// whose device shares are below the radius, which blocks cannot run
// (their forecast reads "never"). An SpMV replicates its operand beside
// a large matrix and keeps a small one on one device.
TEST_F(StencilFourDevices, LayoutChoiceIsARecordedDecision) {
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  const Layout wide = stencilLayout(32, 2048, 1);
  EXPECT_EQ(wide.name, "stencil.layout: row-aligned");
  EXPECT_LT(wide.multiNs, wide.singleNs);

  const Layout small = stencilLayout(16, 64, 1);
  EXPECT_EQ(small.name, "stencil.layout: single-device");
  EXPECT_LT(small.singleNs, small.multiNs);
  EXPECT_LT(small.multiNs, kNever);

  const Layout narrow = stencilLayout(5, 4, 3);
  EXPECT_EQ(narrow.name, "stencil.layout: single-device");
  EXPECT_EQ(narrow.multiNs, kNever);

  const Layout bigSpmv = sparseLayout(65536);
  EXPECT_EQ(bigSpmv.name, "sparse.layout: replicated");
  EXPECT_LT(bigSpmv.multiNs, bigSpmv.singleNs);

  const Layout smallSpmv = sparseLayout(256);
  EXPECT_EQ(smallSpmv.name, "sparse.layout: single-device");
  EXPECT_LT(smallSpmv.singleNs, smallSpmv.multiNs);
}

/// A call's layout decision, and the billed finish of the device work
/// it then enqueued, from the decision. `call` runs once to stage its
/// operands in the layout and read its result, so every engine is idle
/// and nothing moves when the traced second run decides.
std::pair<Layout, std::uint64_t> decidedAndBilled(
    const std::function<void()>& call) {
  call();
  trace::Recorder::instance().start();
  call();
  const trace::Trace t = trace::Recorder::instance().stop();
  Layout layout{};
  std::uint64_t decidedNs = 0;
  for (const trace::HostSpanRecord& h : t.hostSpans) {
    if (h.kind == trace::HostKind::Decision) {
      layout = {t.str(h.name), h.value, h.value2};
      decidedNs = h.startNs;
    }
  }
  std::uint64_t billedNs = 0;
  for (const trace::CommandRecord& c : t.commands) {
    if (c.kind == trace::CommandKind::Kernel ||
        c.kind == trace::CommandKind::CopyPeer) {
      EXPECT_GE(c.queuedNs, decidedNs);
      billedNs = std::max(billedNs, c.endNs - decidedNs);
    }
  }
  return {layout, billedNs};
}

// The forecast a layout decision files is the virtual time the call is
// then billed, on an idle runtime with the operands in place: the same
// commands (one list for the evaluator and the forecast), engines and
// launch overheads. Kernel time is forecast from one probed work-item
// per kernel. Every SpMV row here has four nonzeros, so every item
// costs what the probes measured and the forecast is exact; a stencil's
// items at the grid's edges take branches the probed item does not, a
// few cycles each: within 1 %. A forecast leaves a seeded schedule's
// dispatch jitter out, so the test runs the FIFO schedule whatever the
// environment asks for.
TEST(StencilLayoutRule, ForecastIsTheBilledFinishOnAnIdleRuntime) {
  const char* seed = std::getenv("SKELCL_SCHEDULE_SEED");
  const std::string savedSeed = seed != nullptr ? seed : "";
  ::unsetenv("SKELCL_SCHEDULE_SEED");
  skelcl_test::useTempCacheDir();
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(4));
  skelcl::init(skelcl::DeviceSelection::nGPUs(4));

  const std::string heat =
      "float fh(__global const float* w, uint st) {\n"
      "  return 0.25f * (w[1] + w[(int)st] + w[(int)st + 2] +\n"
      "                  w[2 * (int)st + 1]);\n"
      "}\n";
  using Grid = std::pair<std::size_t, std::size_t>; // rows, width
  for (const auto& [rows, width] : {Grid{32, 2048}, Grid{16, 64}}) {
    Vector<float> in(std::vector<float>(rows * width, 0.5f));
    Stencil<float> st(heat, StencilShape{1, Boundary::Clamp, width});
    const auto [layout, billed] = decidedAndBilled([&] {
      Vector<float> out = st(in);
      (void)out[0];
    });
    const bool spread = layout.name == "stencil.layout: row-aligned";
    EXPECT_EQ(spread, rows == 32) << layout.name;
    EXPECT_NEAR(double(spread ? layout.multiNs : layout.singleNs),
                double(billed), 0.01 * double(billed))
        << layout.name;
  }
  for (const std::size_t rows : {65536, 256}) {
    std::vector<std::uint32_t> rowPtr, colIdx;
    for (std::uint32_t r = 0; r <= rows; ++r) {
      rowPtr.push_back(4 * r);
    }
    for (std::uint32_t r = 0; r < 4 * rows; ++r) {
      colIdx.push_back((r * 7) % std::uint32_t(rows));
    }
    skelcl::CsrMatrix<float> m(rows, rows, rowPtr, colIdx,
                               std::vector<float>(4 * rows, 2.0f));
    skelcl::SparseGather<float> spmv(
        "float fg(float a, float xj) { return a * xj; }",
        "float fc(float a, float b) { return a + b; }", "0.0f");
    Vector<float> x(std::vector<float>(rows, 1.0f));
    const auto [layout, billed] = decidedAndBilled([&] {
      Vector<float> y = spmv(m, x);
      (void)y[0];
    });
    const bool spread = layout.name == "sparse.layout: replicated";
    EXPECT_EQ(spread, rows == 65536) << layout.name;
    EXPECT_EQ(spread ? layout.multiNs : layout.singleNs, billed)
        << layout.name;
  }

  skelcl::terminate();
  if (seed != nullptr) {
    ::setenv("SKELCL_SCHEDULE_SEED", savedSeed.c_str(), 1);
  }
}

// bench_irregular's heat grid, with its window function, stays in
// row-aligned blocks on 2 and 4 GPUs: its kernels dwarf the launches
// and halo copies.
TEST(StencilLayoutRule, BenchHeatGridSpreadsOnTwoAndFourGpus) {
  skelcl_test::useTempCacheDir();
  for (std::uint32_t gpus : {2u, 4u}) {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
    skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
    EXPECT_EQ(heatLayout("float heat(__global const float* w, uint st) {\n"
                         "  float acc = 0.25f * (w[1] + w[(int)st] +\n"
                         "      w[(int)st + 2] + w[2 * (int)st + 1]);\n"
                         "  for (int k = 0; k < 8; ++k) {\n"
                         "    acc = acc * 1.000001f + 0.0000001f;\n"
                         "  }\n"
                         "  return acc;\n"
                         "}\n",
                         2048, 256)
                  .name,
              "stencil.layout: row-aligned")
        << gpus << " GPUs";
    skelcl::terminate();
  }
}

// bench_cluster's 8 x 8192 heat grid, with its window function, on two
// single-GPU nodes: InfiniBand
// carries a halo row faster than the interior launch it overlaps, so
// the grid spreads; over Ethernet the halo copy outlasts what the split
// saves, so it stays on one device.
TEST(StencilLayoutRule, ClusterHeatGridFollowsTheInterconnect) {
  skelcl_test::useTempCacheDir();
  for (const char* tier : {"ib", "eth"}) {
    ocl::configureSystem(
        ocl::SystemConfig::parse(std::string("node(t10)*2@") + tier));
    skelcl::init(skelcl::DeviceSelection::allDevices());
    EXPECT_EQ(heatLayout("float cheat(__global const float* w, uint st) {\n"
                         "  return 0.25f * (w[1] + w[(int)st] +\n"
                         "      w[(int)st + 2] + w[2 * (int)st + 1]);\n"
                         "}\n",
                         8, 8192)
                  .name,
              std::string(tier) == "ib" ? "stencil.layout: row-aligned"
                                        : "stencil.layout: single-device")
        << tier;
    skelcl::terminate();
  }
}

// Fewer elements than devices: one share is zero rows, which is below
// any radius — single-device fallback again, not a zero-sized chunk in
// the halo path.
TEST_F(StencilFourDevices, FewerElementsThanDevices) {
  const std::vector<int> data = {3, -1, 4};
  Vector<int> in(data);
  Stencil<int> st(sum1DSource(1), StencilShape{1, Boundary::Clamp, 0});
  Vector<int> out = st(in);
  EXPECT_EQ(out.distribution(), Distribution::Single);
  const std::vector<int> want = oracle1D(data, 1, Boundary::Clamp, 0);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i], want[i]) << i;
  }
}

// One row per device with wrap: every output row is pure border, both
// halos come from the other device, and the top/bottom halos of the
// first/last chunk wrap around the grid.
TEST_F(StencilTwoDevices, OneRowPerDeviceWrapHalos) {
  const std::size_t width = 16384;
  const std::vector<int> data = randomInts(2 * width, 61);
  Vector<int> in(data);
  Stencil<int> st(sum2DSource(1), StencilShape{1, Boundary::Wrap, width});
  Vector<int> out = st(in);
  EXPECT_EQ(out.distribution(), Distribution::Block);
  const std::vector<int> want = oracle2D(data, width, 1, Boundary::Wrap, 0);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i], want[i]) << i;
  }
}

TEST_F(StencilTwoDevices, EmptyVectorYieldsEmptyResult) {
  for (Boundary b : kPolicies) {
    Vector<int> in;
    Stencil<int> st(sum1DSource(2), StencilShape{2, b, 0});
    Vector<int> out = st(in);
    EXPECT_EQ(out.size(), 0u);
  }
}

TEST_F(StencilOneDevice, InvalidGeometryThrows) {
  EXPECT_THROW(Stencil<int>(sum1DSource(1), StencilShape{0}),
               common::InvalidArgument);
  // 10 elements are not a whole number of rows of width 3.
  Vector<int> in(std::vector<int>(10, 1));
  Stencil<int> ragged(sum2DSource(1), StencilShape{1, Boundary::Clamp, 3});
  EXPECT_THROW(ragged(in), common::InvalidArgument);
  // Wrap needs every grid extent >= radius.
  Vector<int> tiny(std::vector<int>{1, 2});
  Stencil<int> wide(sum1DSource(3), StencilShape{3, Boundary::Wrap, 0});
  EXPECT_THROW(wide(tiny), common::InvalidArgument);
}

// --- fault recovery ------------------------------------------------------

class StencilFaults : public StencilTwoDevices {
protected:
  void TearDown() override {
    FaultInjector::instance().reset();
    StencilTwoDevices::TearDown();
  }
};

// A fault on the first buffer copy hits the halo exchange itself (the
// stencil's only copy_buffer commands; the grid is long enough to
// spread). The error is typed, names the device, leaves the host data
// intact, and the run retries cleanly.
TEST_F(StencilFaults, HaloExchangeCopyFaultSurfacesTypedAndRetries) {
  const std::vector<int> data = randomInts(131072, 71);
  Vector<int> in(data);
  Stencil<int> st(sum1DSource(2), StencilShape{2, Boundary::Clamp, 0});

  FaultInjector::instance().configure("copy@1");
  EXPECT_THROW(
      {
        Vector<int> out = st(in);
        (void)out[0];
      },
      ocl::TransferFailure);
  EXPECT_EQ(FaultInjector::instance().firedLog().size(), 1u);

  FaultInjector::instance().reset();
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(in[i], data[i]) << i;
  }
  Vector<int> out = st(in);
  EXPECT_EQ(out.distribution(), Distribution::Block);
  const std::vector<int> want = oracle1D(data, 2, Boundary::Clamp, 0);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i], want[i]) << i;
  }
}

TEST_F(StencilFaults, PackKernelFaultSurfacesTypedAndRetries) {
  const std::vector<int> data = randomInts(300, 72);
  Vector<int> in(data);
  Stencil<int> st(sum1DSource(1), StencilShape{1, Boundary::Wrap, 0});

  FaultInjector::instance().configure("kernel~skelcl_stencil_pack@1");
  EXPECT_THROW(
      {
        Vector<int> out = st(in);
        (void)out[0];
      },
      ocl::LaunchFailure);

  FaultInjector::instance().reset();
  Vector<int> out = st(in);
  const std::vector<int> want = oracle1D(data, 1, Boundary::Wrap, 0);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i], want[i]) << i;
  }
}

// --- bit-identity across runtime configurations --------------------------

// Three steps of a float heat-diffusion stencil must produce the same
// bits no matter how the work is split or scheduled: each output cell's
// window always carries the same values in the same positions, so the
// per-cell float expression is literally identical everywhere.
struct HeatRun {
  std::vector<float> values;
  Distribution layout; // of the last step's result
};

/// Three heat steps over a 33 x 1024 grid. With `startOn`, the grid is
/// first staged on that device alone.
HeatRun runHeat(std::uint32_t gpus, const char* deviceSpec,
                std::optional<std::size_t> startOn = std::nullopt) {
  skelcl_test::useTempCacheDir();
  if (deviceSpec != nullptr) {
    ocl::configureSystem(ocl::SystemConfig::parse(deviceSpec));
    skelcl::init(skelcl::DeviceSelection::allDevices());
  } else {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
    skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
  }

  const std::size_t width = 1024;
  const std::size_t rows = 33;
  std::vector<float> seed(rows * width);
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = float((i * 2654435761u) % 1000) / 997.0f;
  }
  Stencil<float> heat(
      "float heat(__global const float* w, uint st) {\n"
      "  return 0.25f * (w[1] + w[(int)st] + w[(int)st + 2] +\n"
      "                  w[2 * (int)st + 1]);\n"
      "}\n",
      StencilShape{1, Boundary::Clamp, width});
  Vector<float> v(seed);
  if (startOn.has_value()) {
    v.setDistribution(Distribution::Single, *startOn);
    v.state().ensureOnDevices();
  }
  for (int step = 0; step < 3; ++step) {
    v = heat(v);
  }
  HeatRun run{std::vector<float>(v.begin(), v.end()), v.distribution()};
  skelcl::terminate();
  return run;
}

TEST(StencilBitIdentity, InvariantAcrossDevicesScheduleAndEngines) {
  const std::vector<float> ref = runHeat(1, nullptr).values;
  // Every multi-GPU run spreads the grid in row-aligned blocks.
  auto expectSame = [&](const HeatRun& got, const char* what,
                        Distribution layout = Distribution::Block) {
    EXPECT_EQ(got.layout, layout) << what;
    ASSERT_EQ(got.values.size(), ref.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got.values[i], ref[i]) << what << " diverges at " << i;
    }
  };

  expectSame(runHeat(2, nullptr), "2 devices");
  expectSame(runHeat(4, nullptr), "4 devices");
  // The half-speed device gets a smaller row share: the cut lines are
  // unequal, and halo-aware chunk geometry must follow them.
  expectSame(runHeat(0, "t10*2, t10@0.5x"), "hetero 3-device");
  // A fresh grid stays on the GPU: the CPU's share would finish last.
  expectSame(runHeat(0, "t10@2x, cpu"), "gpu+cpu fresh",
             Distribution::Single);
  // A grid staged on the CPU spreads over the GPU and the CPU rather
  // than running on the CPU alone: the halo exchange between the two
  // backends.
  expectSame(runHeat(0, "t10@2x, cpu", 1), "gpu+cpu");

  for (unsigned seed : {1u, 7u, 1234u}) {
    ::setenv("SKELCL_SCHEDULE_SEED", std::to_string(seed).c_str(), 1);
    expectSame(runHeat(4, nullptr), "shuffled schedule");
    ::unsetenv("SKELCL_SCHEDULE_SEED");
  }

  ::setenv("SKELCL_ASYNC", "0", 1);
  expectSame(runHeat(4, nullptr), "async off");
  ::unsetenv("SKELCL_ASYNC");

  ::setenv("SKELCL_FUSION", "0", 1);
  expectSame(runHeat(4, nullptr), "fusion off");
  ::unsetenv("SKELCL_FUSION");

  // In-order queues: each halo copy waits on another device's pack
  // under the single-timeline model too.
  ::setenv("SKELCL_SERIALIZE", "1", 1);
  expectSame(runHeat(4, nullptr), "serialized");
  ::unsetenv("SKELCL_SERIALIZE");
}

} // namespace
