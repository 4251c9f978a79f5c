// Launch geometry: the work-group size SkelCL picks for an element-wise
// launch from the launch's own item count when the user sets none, the
// user's setWorkGroupSize winning over it, and the tree skeletons
// (Reduce, Scan) keeping their fixed 256-item groups. The "probe"
// customizing functions return get_local_size(0), so an output element
// reports the work-group size of the launch that computed it.
#include <cstring>
#include <numeric>

#include "skelcl/detail/skeleton_common.h"
#include "skelcl_test_util.h"
#include "trace/recorder.h"

namespace {

using skelcl::Boundary;
using skelcl::CsrMatrix;
using skelcl::Distribution;
using skelcl::Map;
using skelcl::Reduce;
using skelcl::Scan;
using skelcl::SparseGather;
using skelcl::Stencil;
using skelcl::StencilShape;
using skelcl::Vector;
using skelcl::Zip;
using skelcl::detail::effectiveWorkGroupSize;

/// Item counts around the rule's edges on a 30-CU T10: one warp, one
/// group per CU at the warp floor (960 = 30 x 32), and 256 per CU
/// (7680 = 30 x 256).
constexpr std::size_t kItems[] = {1, 31, 32, 33, 960, 961, 7679, 7680, 7681};

/// The rule, restated: ceil(items / CUs) rounded up to a warp of 32,
/// between 32 and 256.
std::size_t expectedWg(std::size_t items, std::size_t cus) {
  const std::size_t perCu = (items + cus - 1) / cus;
  return std::min<std::size_t>(256, std::max<std::size_t>(
                                        32, (perCu + 31) / 32 * 32));
}

const char* kMapProbe = "float p(float x) { return (float)get_local_size(0); }";
const char* kZipProbe =
    "float p(float x, float y) { return (float)get_local_size(0); }";

bool bitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> ramp(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = float(i % 61) * 0.37f - 3.0f;
  }
  return v;
}

/// A CSR matrix of `rows` rows over `rows` columns with 1-3 nonzeros
/// per row.
CsrMatrix<float> bandMatrix(std::size_t rows) {
  std::vector<std::uint32_t> rowPtr{0};
  std::vector<std::uint32_t> colIdx;
  std::vector<float> values;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k <= r % 3; ++k) {
      colIdx.push_back(std::uint32_t((r + k * 7) % rows));
      values.push_back(float(k + 1) * 0.5f + float(r % 5));
    }
    rowPtr.push_back(std::uint32_t(colIdx.size()));
  }
  return CsrMatrix<float>(rows, rows, std::move(rowPtr), std::move(colIdx),
                          std::move(values));
}

class LaunchGeometry : public skelcl_test::SkelclFixture {
protected:
  LaunchGeometry() : SkelclFixture(1) {}
};

class LaunchGeometryTwoGpus : public skelcl_test::SkelclFixture {
protected:
  LaunchGeometryTwoGpus() : SkelclFixture(2) {}
};

TEST(LaunchGeometryRule, DefaultSizeFollowsTheItemCount) {
  skelcl_test::useTempCacheDir();
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
  skelcl::init(skelcl::DeviceSelection::allDevices());
  const auto& devices = skelcl::detail::Runtime::instance().devices();
  ASSERT_EQ(devices.size(), 2u);
  const ocl::Device& t10 =
      devices[0].type() == ocl::DeviceType::GPU ? devices[0] : devices[1];
  const ocl::Device& xeon =
      devices[0].type() == ocl::DeviceType::GPU ? devices[1] : devices[0];
  ASSERT_EQ(t10.spec().computeUnits, 30u);
  ASSERT_EQ(xeon.spec().computeUnits, 4u);

  const std::size_t onT10[] = {32, 32, 32, 32, 32, 64, 256, 256, 256};
  const std::size_t onXeon[] = {32, 32, 32, 32, 256, 256, 256, 256, 256};
  for (std::size_t i = 0; i < std::size(kItems); ++i) {
    EXPECT_EQ(effectiveWorkGroupSize(0, kItems[i], t10), onT10[i])
        << kItems[i] << " items";
    EXPECT_EQ(effectiveWorkGroupSize(0, kItems[i], xeon), onXeon[i])
        << kItems[i] << " items";
    EXPECT_EQ(onT10[i], expectedWg(kItems[i], 30));
    EXPECT_EQ(onXeon[i], expectedWg(kItems[i], 4));
  }
  // An explicit size wins at any item count; only the device limit
  // (512 on a T10) caps it.
  EXPECT_EQ(effectiveWorkGroupSize(64, 7681, t10), 64u);
  EXPECT_EQ(effectiveWorkGroupSize(128, 1, t10), 128u);
  EXPECT_EQ(effectiveWorkGroupSize(1024, 1, t10), 512u);
  skelcl::terminate();
}

TEST_F(LaunchGeometry, MapAndZipLaunchTheRuleSize) {
  Map<float> map(kMapProbe);
  Zip<float> zip(kZipProbe);
  for (std::size_t n : kItems) {
    const float want = float(expectedWg(n, 30));
    Vector<float> x(n, 1.0f);
    const std::vector<float> mapped = map(x).hostData();
    const std::vector<float> zipped = zip(x, x).hostData();
    EXPECT_EQ(mapped, std::vector<float>(n, want)) << n << " items";
    EXPECT_EQ(zipped, std::vector<float>(n, want)) << n << " items";
  }
}

TEST_F(LaunchGeometry, ExplicitWorkGroupSizeWins) {
  for (std::size_t wg : {32u, 64u, 256u}) {
    Map<float> map(kMapProbe);
    map.setWorkGroupSize(wg);
    for (std::size_t n : {std::size_t(1), std::size_t(961),
                          std::size_t(7681)}) {
      Vector<float> x(n, 1.0f);
      EXPECT_EQ(map(x).hostData(), std::vector<float>(n, float(wg)))
          << n << " items, explicit " << wg;
    }
  }
}

TEST_F(LaunchGeometry, StencilAndSparseGatherLaunchTheRuleSize) {
  Stencil<float> stencil(
      "float p(__global const float* w) { return (float)get_local_size(0); }",
      StencilShape{1, Boundary::Clamp, 0});
  SparseGather<float> spmv(
      "float g(float v, float x) { return (float)get_local_size(0); }",
      "float c(float a, float b) { return a + b; }", "0.0f");
  for (std::size_t n : kItems) {
    const float want = float(expectedWg(n, 30));
    Vector<float> x(n, 1.0f);
    EXPECT_EQ(stencil(x).hostData(), std::vector<float>(n, want))
        << n << " items";
    // One nonzero per row: each row's fold is its single gather.
    std::vector<std::uint32_t> rowPtr(n + 1);
    std::iota(rowPtr.begin(), rowPtr.end(), 0u);
    std::vector<std::uint32_t> colIdx(n);
    std::iota(colIdx.begin(), colIdx.end(), 0u);
    CsrMatrix<float> diag(n, n, rowPtr, colIdx, std::vector<float>(n, 1.0f));
    EXPECT_EQ(spmv(diag, x).hostData(), std::vector<float>(n, want))
        << n << " rows";
  }
}

TEST_F(LaunchGeometry, ReduceAndScanKeepTreeGroups) {
  Reduce<float> reduce(
      "float p(float x, float y) { return (float)get_local_size(0); }");
  Scan<float> scan(
      "float p(float x, float y) { return (float)get_local_size(0); }", "0");
  for (std::size_t n : kItems) {
    Vector<float> x(n, 1.0f);
    if (n > 1) {
      EXPECT_EQ(reduce(x).getValue(), 256.0f) << n << " items";
    }
    // Element 0 is the identity unless a second pass (more than one
    // block) folds the block sums into it.
    const std::vector<float> scanned = scan(x).hostData();
    ASSERT_EQ(scanned.size(), n);
    EXPECT_EQ(scanned[0], n <= 256 ? 0.0f : 256.0f) << n << " items";
    for (std::size_t i = 1; i < n; ++i) {
      ASSERT_EQ(scanned[i], 256.0f) << n << " items, element " << i;
    }
  }
}

TEST_F(LaunchGeometryTwoGpus, CombineLaunchesTheRuleSizePerBlock) {
  auto& runtime = skelcl::detail::Runtime::instance();
  for (std::size_t n : kItems) {
    Vector<float> v(n, 1.0f);
    v.setDistribution(Distribution::Copy);
    v.state().ensureOnDevices();
    v.dataOnDevicesModified();
    v.setDistribution(Distribution::Block,
                      "float p(float a, float b) { "
                      "return (float)get_local_size(0); }");
    const std::vector<std::size_t> blocks = runtime.blockPartition(n);
    const std::vector<float>& out = v.hostData();
    std::size_t i = 0;
    for (std::size_t count : blocks) {
      for (std::size_t k = 0; k < count; ++k, ++i) {
        ASSERT_EQ(out[i], float(expectedWg(count, 30)))
            << n << " items, element " << i;
      }
    }
  }
}

TEST_F(LaunchGeometryTwoGpus, OutputsMatchAnExplicit256BitForBit) {
  const char* inc = "float f(float x) { return x * 1.5f + 0.25f; }";
  const char* mix = "float f(float x, float y) { return x * y - 0.5f * x; }";
  const char* blur =
      "float f(__global const float* w) {"
      "  return (w[0] + 2.0f * w[1] + w[2]) * 0.25f; }";
  const char* gather = "float g(float v, float x) { return v * x; }";
  const char* fold = "float c(float a, float b) { return a + b; }";
  for (std::size_t n : kItems) {
    const std::vector<float> data = ramp(n);
    const CsrMatrix<float> matrix = bandMatrix(n);
    std::vector<float> byDefault[4];
    std::vector<float> byExplicit[4];
    for (bool explicitWg : {false, true}) {
      Map<float> map(inc);
      Zip<float> zip(mix);
      Stencil<float> stencil(blur, StencilShape{1, Boundary::Clamp, 0});
      SparseGather<float> spmv(gather, fold, "0.0f");
      if (explicitWg) {
        map.setWorkGroupSize(256);
        zip.setWorkGroupSize(256);
        stencil.setWorkGroupSize(256);
        spmv.setWorkGroupSize(256);
      }
      std::vector<float>* out = explicitWg ? byExplicit : byDefault;
      Vector<float> x(data);
      out[0] = map(x).hostData();
      out[1] = zip(x, x).hostData();
      out[2] = stencil(x).hostData();
      out[3] = spmv(matrix, x).hostData();
    }
    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(bitIdentical(byDefault[k], byExplicit[k]))
          << n << " items, skeleton " << k;
    }

    // The combine has no user work-group size; its output must equal
    // the host fold of the two copies, which every geometry computes.
    Vector<float> v(data);
    v.setDistribution(Distribution::Copy);
    v.state().ensureOnDevices();
    v.dataOnDevicesModified();
    v.setDistribution(Distribution::Block, fold);
    std::vector<float> folded(n);
    for (std::size_t i = 0; i < n; ++i) {
      folded[i] = data[i] + data[i];
    }
    EXPECT_TRUE(bitIdentical(v.hostData(), folded)) << n << " items";
  }
}

/// Kernel virtual time of one 256-item Map on one T10.
std::uint64_t mapKernelNs(std::size_t explicitWg) {
  Map<float> map("float f(float x) { return x * x + 1.0f; }");
  if (explicitWg != 0) {
    map.setWorkGroupSize(explicitWg);
  }
  Vector<float> x(ramp(256));
  x.state().ensureOnDevices();
  skelcl::detail::Runtime::instance().queue(0).finish();
  trace::Recorder::instance().start();
  const std::vector<float> out = map(x).hostData();
  const trace::Trace t = trace::Recorder::instance().stop();
  std::uint64_t ns = 0;
  for (const trace::CommandRecord& c : t.commands) {
    if (c.kind == trace::CommandKind::Kernel) {
      ns += c.endNs - c.startNs;
    }
  }
  return ns;
}

TEST_F(LaunchGeometry, SmallMapRunsFasterThanOneFullGroup) {
  // 256 items: eight 32-item groups on eight CUs instead of one group of
  // 256 on one CU. Launch overhead and bytes moved are the same.
  const std::uint64_t byDefault = mapKernelNs(0);
  const std::uint64_t byExplicit = mapKernelNs(256);
  EXPECT_GT(byDefault, 0u);
  EXPECT_LT(byDefault, byExplicit);
}

} // namespace
