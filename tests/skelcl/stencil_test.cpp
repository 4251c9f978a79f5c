// Differential suite for the Stencil skeleton: exact host oracles for
// every radius (1..3) × boundary policy (clamp/wrap/constant) × shape
// (1D, row-major 2D) combination, on 1, 2, and 4 devices; bit-identity
// of an iterated float stencil across device counts, heterogeneous
// SKELCL_DEVICES specs, shuffled schedules, async-off, fusion-off and
// serialized queues; the degenerate-geometry
// regressions (chunks smaller than the halo radius, one-row chunks whose
// halos wrap, empty input, sizes not divisible by the device count); the
// launch count per call; and typed-error recovery with a fault aimed at
// the halo-exchange copy itself.
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "skelcl_test_util.h"
#include "trace/analysis.h"
#include "trace/recorder.h"

namespace {

using ocl::FaultInjector;
using skelcl::Boundary;
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

void expectOracle1D(std::size_t n, unsigned seed) {
  const std::vector<int> data = randomInts(n, seed);
  for (int radius = 1; radius <= 3; ++radius) {
    for (Boundary b : kPolicies) {
      Vector<int> in(data);
      Stencil<int> st(sum1DSource(radius),
                      StencilShape{std::size_t(radius), b, 0}, /*cval=*/7);
      Vector<int> out = st(in);
      const std::vector<int> want = oracle1D(data, radius, b, 7);
      ASSERT_EQ(out.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(out[i], want[i])
            << "1D radius=" << radius << " policy=" << int(b) << " i=" << i;
      }
    }
  }
}

void expectOracle2D(std::size_t rows, std::size_t width, unsigned seed) {
  const std::vector<int> data = randomInts(rows * width, seed);
  for (int radius = 1; radius <= 3; ++radius) {
    for (Boundary b : kPolicies) {
      Vector<int> in(data);
      Stencil<int> st(sum2DSource(radius),
                      StencilShape{std::size_t(radius), b, width},
                      /*cval=*/-3);
      Vector<int> out = st(in);
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
  expectOracle1D(257, 11);
  expectOracle2D(19, 10, 12);
}

// 1003 elements / 37 rows do not divide evenly by 2 or 4: the
// largest-remainder partition produces unequal row-aligned chunks.
TEST_F(StencilTwoDevices, MatchesOracleEveryRadiusAndPolicy) {
  expectOracle1D(1003, 21);
  expectOracle2D(37, 10, 22);
}

TEST_F(StencilFourDevices, MatchesOracleEveryRadiusAndPolicy) {
  expectOracle1D(1003, 31);
  expectOracle2D(37, 10, 32);
  // 4 rows per device: radius 1 leaves an interior launch, radius 2
  // makes every chunk pure border (rows == 2R), and radius 3 gives
  // chunks with R <= rows < 2R whose two border ranges overlap.
  expectOracle2D(16, 5, 33);
}

// --- launch structure ------------------------------------------------------

/// Kernel launches across all devices while evaluating one stencil call.
std::uint64_t launchesForOneCall(std::size_t rows, std::size_t width,
                                 Boundary b) {
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
  return launches() - before;
}

// Each device packs once and computes in an interior plus a border
// launch; a chunk without a halo packs and computes in one launch each.
TEST_F(StencilFourDevices, ThreeLaunchesPerDeviceWithHalo) {
  EXPECT_EQ(launchesForOneCall(32, 8, Boundary::Clamp), 12u);
  EXPECT_EQ(launchesForOneCall(32, 8, Boundary::Wrap), 12u);
}

TEST_F(StencilOneDevice, TwoLaunchesWithoutHalo) {
  EXPECT_EQ(launchesForOneCall(32, 8, Boundary::Clamp), 2u);
  EXPECT_EQ(launchesForOneCall(32, 8, Boundary::Constant), 2u);
}

// --- staging ---------------------------------------------------------------

/// DMA bytes all devices moved while one clamp stencil call over `in`
/// staged its grid, exchanged halos, and downloaded its result.
std::uint64_t dmaBytesForOneCall(Vector<int>& in, std::size_t width) {
  Stencil<int> st(sum2DSource(1), StencilShape{1, Boundary::Clamp, width});
  const std::uint64_t before = skelcl_test::totalDmaBytes();
  Vector<int> out = st(in);
  (void)out[0]; // downloads the whole result
  return skelcl_test::totalDmaBytes() - before;
}

// The grid crosses PCIe once, already in the row-aligned layout the
// evaluation reads: one upload and one download of the grid, plus both
// legs (source D2H, destination H2D) of the two halos at each of the
// three device boundaries. 13 rows do not split on element boundaries
// into whole rows, and a fresh vector defaults to a single device.
TEST_F(StencilFourDevices, InputIsStagedOnceInItsRowAlignedLayout) {
  const std::size_t width = 64;
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
// where its own input lived: a fresh vector's Map runs on device 0, so
// the row-aligned layout costs a download of the Map result and its
// re-upload in blocks, where a concrete grid costs one upload. This pins
// that host round trip; a change that moves the result device-to-device
// must update the pin on purpose.
TEST_F(StencilFourDevices, PendingInputIsPlacedAtEvaluation) {
  const std::size_t width = 64;
  const std::uint64_t grid = 16 * width * sizeof(int);
  const std::uint64_t haloLegs = 3 * 2 * 2 * (width + 2) * sizeof(int);

  skelcl::Map<int> inc("int inc_pin(int x) { return x + 1; }");
  Vector<int> fresh(randomInts(16 * width, 93));
  Vector<int> pending = inc(fresh);
  const std::uint64_t first = dmaBytesForOneCall(pending, width);
  EXPECT_EQ(first, 3 * grid + haloLegs);
  EXPECT_EQ(first, 15456u);
  // The grid now stays resident in its row-aligned layout.
  EXPECT_EQ(dmaBytesForOneCall(pending, width), grid + haloLegs);
}

// Iterated stencils chain through the expression DAG (each step's input
// is the previous deferred result); the chunks stay resident on-device
// between steps.
TEST_F(StencilFourDevices, IteratedStencilMatchesIteratedOracle) {
  std::vector<int> data = randomInts(96 * 7, 41);
  Vector<int> v(data);
  Stencil<int> st(sum2DSource(1), StencilShape{1, Boundary::Clamp, 7});
  for (int step = 0; step < 4; ++step) {
    v = st(v);
    data = oracle2D(data, 7, 1, Boundary::Clamp, 0);
  }
  ASSERT_EQ(v.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(v[i], data[i]) << i;
  }
}

// --- degenerate geometry -------------------------------------------------

// Fewer rows than radius on some device: 5 rows over 4 devices gives
// per-device shares below radius 3 — the evaluator must fall back to a
// single device instead of exchanging halos wider than a chunk.
TEST_F(StencilFourDevices, ChunkSmallerThanHaloFallsBackToSingleDevice) {
  const std::vector<int> data = randomInts(5 * 4, 51);
  for (Boundary b : kPolicies) {
    Vector<int> in(data);
    Stencil<int> st(sum2DSource(3), StencilShape{3, b, 4}, 9);
    Vector<int> out = st(in);
    const std::vector<int> want = oracle2D(data, 4, 3, b, 9);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(out[i], want[i]) << "policy=" << int(b) << " i=" << i;
    }
  }
}

// The evaluation records the layout it chose: row-aligned blocks when
// every device's share covers the radius, one device when one does not.
TEST_F(StencilFourDevices, LayoutChoiceIsARecordedDecision) {
  auto decisionsOf = [](std::size_t rows, std::size_t radius) {
    Vector<int> in(randomInts(rows * 4, 53));
    Stencil<int> st(sum2DSource(int(radius)),
                    StencilShape{radius, Boundary::Clamp, 4});
    trace::Recorder::instance().start();
    Vector<int> out = st(in);
    (void)out[0];
    return trace::analyze(trace::Recorder::instance().stop()).decisions;
  };
  using Decisions = std::map<std::string, std::uint64_t>;
  EXPECT_EQ(decisionsOf(32, 1),
            (Decisions{{"stencil.layout: row-aligned", 1}}));
  EXPECT_EQ(decisionsOf(5, 3),
            (Decisions{{"stencil.layout: single-device", 1}}));
}

// Fewer elements than devices: one share is zero rows, which is below
// any radius — single-device fallback again, not a zero-sized chunk in
// the halo path.
TEST_F(StencilFourDevices, FewerElementsThanDevices) {
  const std::vector<int> data = {3, -1, 4};
  Vector<int> in(data);
  Stencil<int> st(sum1DSource(1), StencilShape{1, Boundary::Clamp, 0});
  Vector<int> out = st(in);
  const std::vector<int> want = oracle1D(data, 1, Boundary::Clamp, 0);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i], want[i]) << i;
  }
}

// One row per device with wrap: every output row is pure border, both
// halos come from the other device, and the top/bottom halos of the
// first/last chunk wrap around the grid.
TEST_F(StencilTwoDevices, OneRowPerDeviceWrapHalos) {
  const std::vector<int> data = randomInts(2 * 6, 61);
  Vector<int> in(data);
  Stencil<int> st(sum2DSource(1), StencilShape{1, Boundary::Wrap, 6});
  Vector<int> out = st(in);
  const std::vector<int> want = oracle2D(data, 6, 1, Boundary::Wrap, 0);
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
// stencil's only copy_buffer commands). The error is typed, names the
// device, leaves the host data intact, and the run retries cleanly.
TEST_F(StencilFaults, HaloExchangeCopyFaultSurfacesTypedAndRetries) {
  const std::vector<int> data = randomInts(512, 71);
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
std::vector<float> runHeat(std::uint32_t gpus, const char* deviceSpec) {
  skelcl_test::useTempCacheDir();
  if (deviceSpec != nullptr) {
    ocl::configureSystem(ocl::SystemConfig::parse(deviceSpec));
    skelcl::init(skelcl::DeviceSelection::allDevices());
  } else {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
    skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
  }

  const std::size_t width = 24;
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
  for (int step = 0; step < 3; ++step) {
    v = heat(v);
  }
  std::vector<float> result(v.begin(), v.end());
  skelcl::terminate();
  return result;
}

TEST(StencilBitIdentity, InvariantAcrossDevicesScheduleAndEngines) {
  const std::vector<float> ref = runHeat(1, nullptr);
  auto expectSame = [&](const std::vector<float>& got, const char* what) {
    ASSERT_EQ(got.size(), ref.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i], ref[i]) << what << " diverges at " << i;
    }
  };

  expectSame(runHeat(2, nullptr), "2 devices");
  expectSame(runHeat(4, nullptr), "4 devices");
  // The half-speed device gets a smaller row share: the cut lines are
  // unequal, and halo-aware chunk geometry must follow them.
  expectSame(runHeat(0, "t10*2, t10@0.5x"), "hetero 3-device");
  expectSame(runHeat(0, "t10@2x, cpu"), "gpu+cpu");

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
