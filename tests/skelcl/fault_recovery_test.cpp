// SkelCL-layer hardening under injected runtime failures: every fault
// class (alloc, build, transfer, device-lost) surfaces as a typed
// exception with the failing device named, host-side data stays valid,
// and the workload can retry after the fault clears. Also: corrupt
// kernel-cache entries rebuild silently, compile errors carry the
// offending source line, and a fixed SKELCL_FAULT_PLAN/SEED replays the
// same failure sequence across independent init() cycles.
#include <filesystem>
#include <functional>
#include <numeric>

#include "common/byte_stream.h"
#include "skelcl/detail/runtime.h"
#include "skelcl_test_util.h"

namespace {

using ocl::FaultInjector;
using skelcl::Arguments;
using skelcl::Distribution;
using skelcl::Map;
using skelcl::Vector;

class FaultRecovery : public skelcl_test::SkelclFixture {
public:
  FaultRecovery() : SkelclFixture(2) {}

protected:
  void TearDown() override {
    FaultInjector::instance().reset();
    skelcl_test::SkelclFixture::TearDown();
  }
};

TEST_F(FaultRecovery, AllocFaultSurfacesTypedAndHostDataSurvives) {
  Map<int> inc("int inc_af(int x) { return x + 1; }");
  std::vector<int> data(512);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> input(data);

  FaultInjector::instance().configure("alloc@1");
  try {
    Vector<int> out = inc(input);
    FAIL() << "expected AllocFailure";
  } catch (const ocl::AllocFailure& e) {
    EXPECT_EQ(e.status(), ocl::Status::MemObjectAllocationFailure);
    EXPECT_NE(std::string(e.what()).find("vector upload"),
              std::string::npos);
  }
  // Host data is untouched and the workload retries cleanly.
  FaultInjector::instance().reset();
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(input[i], int(i)) << i;
  }
  Vector<int> out = inc(input);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(out[i], int(i) + 1) << i;
  }
}

TEST_F(FaultRecovery, UploadTransferFaultSurfacesTypedAndRetries) {
  Map<int> twice("int twice_tf(int x) { return 2 * x; }");
  std::vector<int> data(256);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> input(data);

  FaultInjector::instance().configure("write@1");
  try {
    Vector<int> out = twice(input);
    FAIL() << "expected TransferFailure";
  } catch (const ocl::TransferFailure& e) {
    EXPECT_GT(e.bytesRequested(), e.bytesTransferred());
    EXPECT_NE(std::string(e.what()).find("vector upload"),
              std::string::npos);
  }
  FaultInjector::instance().reset();
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(input[i], int(i)) << i; // host copy is still the truth
  }
  Vector<int> out = twice(input);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(out[i], 2 * int(i)) << i;
  }
}

TEST_F(FaultRecovery, DownloadTransferFaultIsTransactional) {
  Map<int> inc("int inc_dtf(int x) { return x + 1; }");
  std::vector<int> data(256, 5);
  Vector<int> input(data);
  Vector<int> out = inc(input);

  // The first download attempt fails mid-transfer; the staging commit
  // never happens, so the vector stays consistent and the retry returns
  // the complete, correct result.
  FaultInjector::instance().configure("read@1");
  EXPECT_THROW(out[0], ocl::TransferFailure);
  FaultInjector::instance().reset();
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(out[i], 6) << i;
  }
}

// A call that throws while staging its inputs leaves the DAG as it was:
// the pending child it would have read gains no phantom reader, so a
// later consumer still fuses with it.
TEST_F(FaultRecovery, StagingFaultAtTheCallLeavesNoReader) {
  Map<int> inc("int inc_pr(int x) { return x + 1; }");
  Map<int> dbl("int dbl_pr(int x) { return 2 * x; }");
  skelcl::Zip<int> add("int add_pr(int a, int b) { return a + b; }");
  Vector<int> x(std::vector<int>(256, 1));
  Vector<int> b(std::vector<int>(256, 2));
  Vector<int> a = inc(x); // pending

  FaultInjector::instance().configure("write@1"); // b's upload
  EXPECT_THROW(add(a, b), ocl::TransferFailure);
  FaultInjector::instance().reset();

  const std::uint64_t before = skelcl_test::totalKernelLaunches();
  const std::vector<int> doubled = dbl(a).hostData();
  EXPECT_EQ(skelcl_test::totalKernelLaunches() - before, 1u)
      << "dbl . inc should fuse into one launch";
  EXPECT_EQ(doubled, std::vector<int>(256, 4));
}

// The same holds when an eager call throws while snapshotting its
// explicit output's old value: here the output's own pending producer
// fails. The call never runs, neither now nor when an input changes.
TEST_F(FaultRecovery, EagerCallThatThrowsBeforeItRunsLeavesNoReader) {
  Map<int> inc("int inc_eo(int x) { return x + 1; }");
  Map<int> inc2("int inc2_eo(int x) { return x + 2; }");
  Map<int> dbl("int dbl_eo(int x) { return 2 * x; }");
  skelcl::Zip<int> add("int add_eo(int a, int b) { return a + b; }");
  Vector<int> x(std::vector<int>(256, 1));
  Vector<int> y(std::vector<int>(256, 1));
  Vector<int> b(std::vector<int>(256, 2));
  Vector<int> a = inc(x);  // pending
  Vector<int> o = inc2(y); // pending: the explicit output's old value

  FaultInjector::instance().configure("kernel@1"); // o's producer
  EXPECT_THROW(add(a, b, o), ocl::LaunchFailure);
  FaultInjector::instance().reset();

  const std::uint64_t before = skelcl_test::totalKernelLaunches();
  const std::vector<int> doubled = dbl(a).hostData();
  EXPECT_EQ(skelcl_test::totalKernelLaunches() - before, 1u)
      << "dbl . inc should fuse into one launch";
  EXPECT_EQ(doubled, std::vector<int>(256, 4));
  // b's only reader is the failed call: changing b runs nothing.
  b.hostDataForWriting()[0] = 7;
  EXPECT_EQ(skelcl_test::totalKernelLaunches() - before, 1u);
}

// Every command of a skeleton call carries the call's fault context,
// whichever evaluator built it: one row per kind of command. The fault
// surfaces typed, names its device and the call, leaves the inputs' host
// data as it was, and a retry matches the host oracle. The Reduce and
// Scan rows read a Map chain, so with fusion on they run a fused first
// pass and with fusion off the plain tree (fault_recovery_fusion_off).
TEST_F(FaultRecovery, LaunchFaultReportsSkeletonAndDevice) {
  const bool fused = skelcl::detail::Runtime::instance().fusionEnabled();
  auto label = [&](const std::string& plain, const std::string& chain) {
    return fused ? "Fused(" + chain + ")" : plain;
  };
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> a(data);
  Vector<int> b(data);
  Vector<int> onDevice1(data);
  a.setDistribution(Distribution::Block);
  b.setDistribution(Distribution::Block);
  onDevice1.setDistribution(Distribution::Single, 1);
  std::vector<int> grid(1 << 16);
  std::iota(grid.begin(), grid.end(), -5000);
  Vector<int> gridIn(grid);
  // The gather's operand is a Map result on device 1, so the gather
  // runs there whatever the earlier rows left on the devices.
  const std::vector<int> x{2, -2, 3, 0, -6};
  Vector<int> xBase(x);
  xBase.setDistribution(Distribution::Single, 1);
  // The combine's input: device-modified copies, each adding its block's
  // indices, so the combined block holds i at index i.
  Vector<int> copies(32, 0);
  copies.setDistribution(Distribution::Copy);
  {
    Map<int, void> bump(
        "void bump_lf(int idx, __global int* data) { data[idx] += idx; }");
    Vector<int> indices = skelcl::indexVector(32);
    indices.setDistribution(Distribution::Block);
    Arguments args;
    args.push(copies);
    bump(indices, args);
    copies.dataOnDevicesModified();
  }
  const std::vector<int> copiesHost = copies.state().rawHost();

  Map<int> inc("int inc_lf(int x) { return x + 1; }");
  Vector<int> xs = inc(xBase);
  skelcl::Zip<int> add("int add_lf(int p, int q) { return p + q; }");
  skelcl::Reduce<int> sum("int sum_lf(int p, int q) { return p + q; }");
  skelcl::Scan<int> scan("int scan_lf(int p, int q) { return p + q; }", "0");
  skelcl::Stencil<int> stencil(
      "int st_lf(__global const int* w) { return w[0] - 2 * w[1] + w[2]; }",
      skelcl::StencilShape{1, skelcl::Boundary::Clamp, 0});
  skelcl::CsrMatrix<int> matrix(3, 5, {0, 2, 2, 5}, {0, 4, 1, 2, 3},
                                {2, -3, 5, 7, 1});
  skelcl::SparseGather<int> spmv("int sg_lf(int v, int xj) { return v * xj; }",
                                 "int sc_lf(int p, int q) { return p + q; }",
                                 "0");

  // Host oracles.
  std::vector<int> sums(data.size());
  std::vector<int> prefix(data.size());
  int total = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    sums[i] = 2 * data[i];
    prefix[i] = total; // exclusive scan of inc(data)
    total += data[i] + 1;
  }
  std::vector<int> laplace(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    laplace[i] = grid[i == 0 ? 0 : i - 1] - 2 * grid[i] +
                 grid[i + 1 == grid.size() ? i : i + 1];
  }
  std::vector<int> indices(32);
  std::iota(indices.begin(), indices.end(), 0);

  struct Row {
    const char* name;
    const char* plan;
    std::uint32_t device;
    std::string context;
    bool transfer; // TransferFailure, else LaunchFailure
    std::function<std::vector<int>()> run;
    std::vector<int> want;
  };
  const std::vector<Row> rows = {
      {"zip launch", "kernel~skelcl_zip@2", 1, "Zip skeleton on device 1",
       false, [&] { return add(a, b).hostData(); }, sums},
      {"reduce tree launch", "kernel~skelcl_reduce@1", 0,
       label("Reduce", "sum_lf∘inc_lf") + " skeleton on device 0", false,
       [&] { return std::vector<int>{sum(inc(a)).getValue()}; }, {total}},
      {"reduce partial read", "read@2", 1,
       label("Reduce", "sum_lf∘inc_lf") + " skeleton on device 1", true,
       [&] { return std::vector<int>{sum(inc(a)).getValue()}; }, {total}},
      {"scan add launch", "kernel~skelcl_scan_add@1", 1,
       label("Scan", "scan_lf∘inc_lf") + " skeleton on device 1", false,
       [&] { return scan(inc(onDevice1)).hostData(); }, prefix},
      {"stencil halo copy", "copy@2", 1, "Stencil skeleton on device 1",
       true, [&] { return stencil(gridIn).hostData(); }, laplace},
      {"sparse gather launch", "kernel~skelcl_spgather@1", 1,
       "SparseGather skeleton on device 1", false,
       [&] { return spmv(matrix, xs).hostData(); }, {21, 0, 24}},
      {"combine fold", "kernel~skelcl_combine@2", 1,
       "combine redistribution on device 1", false,
       [&] {
         copies.setDistribution(Distribution::Block,
                                "int cb_lf(int p, int q) { return p + q; }");
         return copies.hostData();
       },
       indices},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    FaultInjector::instance().configure(row.plan);
    try {
      (void)row.run();
      ADD_FAILURE() << "expected a fault";
    } catch (const ocl::ClError& e) {
      EXPECT_EQ(row.transfer,
                dynamic_cast<const ocl::TransferFailure*>(&e) != nullptr);
      EXPECT_EQ(!row.transfer,
                dynamic_cast<const ocl::LaunchFailure*>(&e) != nullptr);
      EXPECT_EQ(e.deviceIndex(), row.device);
      EXPECT_NE(std::string(e.what()).find(row.context), std::string::npos)
          << e.what();
    }
    FaultInjector::instance().reset();
    EXPECT_EQ(a.state().rawHost(), data);
    EXPECT_EQ(b.state().rawHost(), data);
    EXPECT_EQ(onDevice1.state().rawHost(), data);
    EXPECT_EQ(gridIn.state().rawHost(), grid);
    EXPECT_EQ(xBase.state().rawHost(), x);
    EXPECT_EQ(copies.state().rawHost(), copiesHost);
    EXPECT_EQ(row.run(), row.want);
  }
}

TEST_F(FaultRecovery, DeviceLostSurfacesTypedWithHostDataValid) {
  Map<int> inc("int inc_dl(int x) { return x + 1; }");
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);

  FaultInjector::instance().configure("kernel@1=lost");
  try {
    Vector<int> out = inc(input);
    (void)out[0]; // force: launches happen at the first read
    FAIL() << "expected DeviceLost";
  } catch (const ocl::DeviceLost& e) {
    EXPECT_EQ(e.status(), ocl::Status::DeviceNotAvailable);
    EXPECT_EQ(e.deviceIndex(), 0u);
    EXPECT_NE(std::string(e.what()).find("Map skeleton on device 0"),
              std::string::npos);
  }
  FaultInjector::instance().reset();
  // The device stays lost, but the host data is intact and readable.
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(input[i], int(i)) << i;
  }
}

TEST_F(FaultRecovery, BuildFaultSurfacesThroughSkeleton) {
  // Unique source so the kernel cache cannot satisfy it from disk.
  Map<int> inc("int inc_bf_unique(int x) { return x + 1; }");
  Vector<int> input(std::vector<int>(16, 1));
  FaultInjector::instance().configure("build@1");
  try {
    Vector<int> out = inc(input);
    (void)out[0]; // force: the build happens at the first read
    FAIL() << "expected BuildError";
  } catch (const ocl::BuildError& e) {
    EXPECT_NE(e.log().find("injected"), std::string::npos);
  }
  FaultInjector::instance().reset();
  for (std::size_t i = 0; i < input.size(); ++i) {
    ASSERT_EQ(input[i], 1) << i;
  }
  Vector<int> out = inc(input);
  EXPECT_EQ(out[0], 2);
}

TEST_F(FaultRecovery, CompileErrorCarriesSourceLine) {
  // A genuine front-end error (not injected): the build log must point
  // at the offending line of the generated kernel source.
  Map<float> bad("float f_ce(float x) { return undeclared_ce_var; }");
  Vector<float> input(std::vector<float>(8, 1.0f));
  try {
    Vector<float> out = bad(input);
    (void)out[0]; // force: the build happens at the first read
    FAIL() << "expected BuildError";
  } catch (const ocl::BuildError& e) {
    EXPECT_NE(e.log().find("error"), std::string::npos);
    EXPECT_NE(e.log().find("undeclared_ce_var"), std::string::npos);
    // renderContext prints "line:column: error: ..." — require a line
    // number prefix.
    const auto colon = e.log().find(':');
    ASSERT_NE(colon, std::string::npos);
    EXPECT_GT(colon, 0u);
    EXPECT_TRUE(::isdigit(e.log()[colon - 1])) << e.log();
  }
}

TEST_F(FaultRecovery, MidRedistributeFailureKeepsPreRedistributeState) {
  // The OSEM shape: copies modified per-device, then collapsed into
  // blocks with a combine function. A cross-device transfer failure in
  // the middle of the combine must leave the vector exactly as it was:
  // still copy-distributed, host data untouched, retry possible.
  Map<int, void> bump(
      "void b_mr(int idx, __global int* data) { data[idx] += idx; }");
  Vector<int> indices = skelcl::indexVector(32);
  indices.setDistribution(Distribution::Block);
  Vector<int> data(32, 0);
  data.setDistribution(Distribution::Copy);
  Arguments args;
  args.push(data);
  bump(indices, args);
  data.dataOnDevicesModified();

  const std::vector<int> preHost = data.state().rawHost();

  // Copy #2 of the combine is the first cross-device fold transfer.
  FaultInjector::instance().configure("copy@2");
  try {
    data.setDistribution(Distribution::Block,
                         "int add_mr(int a, int b) { return a + b; }");
    FAIL() << "expected TransferFailure";
  } catch (const ocl::TransferFailure& e) {
    EXPECT_NE(std::string(e.what()).find("combine redistribution"),
              std::string::npos);
  }
  // Pre-redistribute state is fully preserved.
  EXPECT_EQ(data.distribution(), Distribution::Copy);
  EXPECT_EQ(data.state().rawHost(), preHost);

  // After the fault clears, the same redistribution succeeds.
  FaultInjector::instance().reset();
  data.setDistribution(Distribution::Block,
                       "int add_mr(int a, int b) { return a + b; }");
  for (std::size_t i = 0; i < 32; ++i) {
    ASSERT_EQ(data[i], int(i)) << i;
  }
}

TEST_F(FaultRecovery, CorruptCacheEntryRebuildsSilentlyThroughSkeleton) {
  const std::string source = "int inc_cc(int x) { return x + 1; }";
  std::vector<int> data(64, 3);
  {
    Map<int> inc(source);
    Vector<int> out = inc(Vector<int>(data));
    ASSERT_EQ(out[0], 4);
  }
  // Corrupt every on-disk entry (flip a payload bit; header stays valid).
  const std::string dir = common::envStr("SKELCL_CACHE_DIR");
  ASSERT_FALSE(dir.empty());
  std::size_t corrupted = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".clcbin") {
      auto bytes = common::readFile(e.path().string());
      if (bytes.size() > 100) {
        bytes[bytes.size() - 3] ^= 0x01;
        common::writeFile(e.path().string(), bytes);
        ++corrupted;
      }
    }
  }
  ASSERT_GT(corrupted, 0u);
  // A fresh skeleton (no in-memory memo) hits the corrupt entries,
  // rebuilds silently, and computes the right answer.
  Map<int> inc(source);
  Vector<int> out = inc(Vector<int>(data));
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(out[i], 4) << i;
  }
}

// Mirrors tests/trace/determinism_test.cpp: a plan armed from the
// environment (seed 0) reproduces the exact same failure sequence
// across two independent init()..terminate() cycles.
TEST(FaultDeterminism, EnvConfiguredPlanReplaysByteIdentically) {
  skelcl_test::useTempCacheDir();
  ::setenv("SKELCL_FAULT_PLAN", "kernel@p0.4,write@2", 1);

  auto cycle = [] {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(2));
    skelcl::init(skelcl::DeviceSelection::nGPUs(2));
    Map<int> inc("int inc_fd(int x) { return x + 1; }");
    std::vector<int> data(512);
    std::iota(data.begin(), data.end(), 0);
    std::vector<std::string> failures;
    for (int round = 0; round < 6; ++round) {
      Vector<int> input(data);
      input.setDistribution(Distribution::Block);
      try {
        Vector<int> out = inc(input);
        (void)out[0];
        failures.emplace_back("ok");
      } catch (const ocl::ClError& e) {
        failures.emplace_back(e.what());
      }
    }
    auto log = FaultInjector::instance().firedLog();
    skelcl::terminate();
    return std::make_pair(std::move(failures), std::move(log));
  };

  const auto a = cycle();
  const auto b = cycle();
  ::unsetenv("SKELCL_FAULT_PLAN");
  FaultInjector::instance().reset();

  EXPECT_EQ(a.first, b.first) << "caught failure sequence diverged";
  ASSERT_EQ(a.second.size(), b.second.size());
  EXPECT_FALSE(a.second.empty()) << "the plan never fired";
  for (std::size_t i = 0; i < a.second.size(); ++i) {
    EXPECT_TRUE(a.second[i] == b.second[i])
        << "fired-fault log diverges at entry " << i;
  }
}

} // namespace
