// Differential suite for CsrMatrix + SparseGather: exact host oracles
// for SpMV (int and float), BFS level expansion to a fixed point, and a
// 20-iteration PageRank, on 1, 2, and 4 devices and heterogeneous
// specs, in both layouts the placement rule picks from (a small matrix
// on one device, a large one with its operand replicated); bit-identity
// across shuffled schedules, async-off and fusion-off; degenerate
// structure (zero-row matrix, empty rows, a full row, duplicate column
// entries, more devices than rows); CSR validation errors; the bytes
// CSR staging moves; and typed-error recovery with faults aimed at the
// gather kernel and at staging.
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "skelcl_test_util.h"
#include "trace/recorder.h"

namespace {

using ocl::FaultInjector;
using skelcl::Arguments;
using skelcl::CsrMatrix;
using skelcl::Distribution;
using skelcl::Map;
using skelcl::SparseGather;
using skelcl::Vector;
using skelcl::Zip;

constexpr std::uint32_t kInf = 0xFFFFFFFFu;

/// Host CSR mirror; rows may be empty, full, or carry duplicate columns.
struct HostCsr {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint32_t> rowPtr;
  std::vector<std::uint32_t> colIdx;
  std::vector<float> values;
};

HostCsr randomCsr(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> degree(0, 8);
  std::uniform_int_distribution<std::uint32_t> col(
      0, cols > 0 ? std::uint32_t(cols - 1) : 0);
  std::uniform_real_distribution<float> val(-2.0f, 2.0f);
  HostCsr m;
  m.rows = rows;
  m.cols = cols;
  m.rowPtr.push_back(0);
  for (std::size_t r = 0; r < rows; ++r) {
    int deg = degree(rng);
    if (r % 11 == 0) {
      deg = 0; // force empty rows into the structure
    } else if (r % 13 == 1 && cols <= 64) {
      deg = int(cols); // and an occasional full row
    }
    for (int k = 0; k < deg; ++k) {
      // Duplicate columns are legal: every fourth entry repeats the
      // previous one.
      const std::uint32_t c =
          (k % 4 == 3 && !m.colIdx.empty()) ? m.colIdx.back() : col(rng);
      m.colIdx.push_back(c);
      m.values.push_back(val(rng));
    }
    m.rowPtr.push_back(std::uint32_t(m.colIdx.size()));
  }
  return m;
}

template <typename T>
std::vector<T> spmvOracle(const HostCsr& m, const std::vector<T>& x,
                          const std::vector<T>& vals) {
  std::vector<T> y(m.rows);
  for (std::size_t r = 0; r < m.rows; ++r) {
    T acc = T(0);
    for (std::uint32_t k = m.rowPtr[r]; k < m.rowPtr[r + 1]; ++k) {
      acc += vals[k] * x[m.colIdx[k]];
    }
    y[r] = acc;
  }
  return y;
}

const char* kSpmvGatherF = "float spg(float a, float xj) { return a * xj; }";
const char* kSpmvCombineF = "float spc(float a, float b) { return a + b; }";
const char* kSpmvGatherI = "int spgi(int a, int xj) { return a * xj; }";
const char* kSpmvCombineI = "int spci(int a, int b) { return a + b; }";

/// Checks an SpMV over a random `rows` x `cols` matrix against the
/// oracle; the call must run in `layout` (Block: replicated operand,
/// block-partitioned rows).
void expectSpmvMatchesOracle(unsigned seed, std::size_t rows, std::size_t cols,
                             Distribution layout) {
  const HostCsr m = randomCsr(rows, cols, seed);
  std::vector<int> vals(m.values.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = int(m.values[i] * 10.0f);
  }
  std::vector<int> x(m.cols);
  std::mt19937 rng(seed + 1);
  std::uniform_int_distribution<int> d(-9, 9);
  for (int& v : x) {
    v = d(rng);
  }

  CsrMatrix<int> mat(m.rows, m.cols, m.rowPtr, m.colIdx, vals);
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "0");
  Vector<int> xs(x);
  Vector<int> y = spmv(mat, xs);
  const std::vector<int> want = spmvOracle<int>(m, x, vals);
  ASSERT_EQ(y.size(), want.size());
  EXPECT_EQ(y.distribution(), layout);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(y[i], want[i]) << "row " << i;
  }
}

class SparseOneDevice : public skelcl_test::SkelclFixture {
public:
  SparseOneDevice() : SkelclFixture(1) {}
};
class SparseTwoDevices : public skelcl_test::SkelclFixture {
public:
  SparseTwoDevices() : SkelclFixture(2) {}
};
class SparseFourDevices : public skelcl_test::SkelclFixture {
public:
  SparseFourDevices() : SkelclFixture(4) {}
};

TEST_F(SparseOneDevice, SpmvMatchesOracle) {
  expectSpmvMatchesOracle(3, 97, 53, Distribution::Single);
}
TEST_F(SparseTwoDevices, SpmvMatchesOracle) {
  expectSpmvMatchesOracle(5, 97, 53, Distribution::Single);
  expectSpmvMatchesOracle(6, 32771, 4099, Distribution::Block);
}
TEST_F(SparseFourDevices, SpmvMatchesOracle) {
  expectSpmvMatchesOracle(7, 97, 53, Distribution::Single);
  expectSpmvMatchesOracle(8, 32771, 4099, Distribution::Block);
}

/// DMA bytes one SpMV over `rows` rows of `perRow` entries each moves
/// when its operand `x` (cols elements) is a pending Map over a fresh
/// vector, including the result download; the call must run in
/// `layout`.
std::uint64_t pendingOperandBytes(std::size_t rows, std::size_t cols,
                                  std::uint32_t perRow, Distribution layout) {
  std::vector<std::uint32_t> rowPtr, colIdx;
  for (std::uint32_t r = 0; r <= rows; ++r) {
    rowPtr.push_back(perRow * r);
  }
  for (std::uint32_t k = 0; k < perRow * rows; ++k) {
    colIdx.push_back((k * 7) % std::uint32_t(cols));
  }
  CsrMatrix<int> m(rows, cols, rowPtr, colIdx,
                   std::vector<int>(perRow * rows, 3));
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "0");
  Map<int> inc("int inc_pin(int x) { return x + 1; }");
  Vector<int> fresh(std::vector<int>(cols, 1));
  Vector<int> x = inc(fresh);

  const std::uint64_t before = skelcl_test::totalDmaBytes();
  Vector<int> y = spmv(m, x);
  EXPECT_EQ(y[0], int(6 * perRow));
  EXPECT_EQ(y.distribution(), layout);
  return skelcl_test::totalDmaBytes() - before;
}

// A SparseGather whose operand is still pending is placed at
// evaluation, matrix included: the Map over a fresh vector leaves its
// result on device 0. A small matrix joins it there, so the call moves
// the matrix once plus the result download.
TEST_F(SparseFourDevices, PendingOperandIsPlacedAtEvaluation) {
  const std::size_t n = 64;
  const std::uint64_t csr = 65 * sizeof(std::uint32_t) +
                            128 * sizeof(std::uint32_t) + 128 * sizeof(int);
  const std::uint64_t moved =
      pendingOperandBytes(n, n, 2, Distribution::Single);
  EXPECT_EQ(moved, csr + n * sizeof(int));
  EXPECT_EQ(moved, 1540u);
}

// A matrix large enough to replicate the operand pays for the move off
// device 0: a download of the Map result and one upload per device, on
// top of the CSR slices and the result download. This pins that host
// round trip; a change that moves the operand device-to-device must
// update the pin on purpose.
TEST_F(SparseFourDevices, PendingOperandOfALargeMatrixIsReplicated) {
  const std::size_t rows = 32768;
  const std::size_t cols = 4096;
  const std::uint64_t csr = 4 * (8193 * sizeof(std::uint32_t)) +
                            rows * 8 * (sizeof(std::uint32_t) + sizeof(int));
  const std::uint64_t vec = cols * sizeof(int);
  const std::uint64_t moved =
      pendingOperandBytes(rows, cols, 8, Distribution::Block);
  EXPECT_EQ(moved, csr + vec + 4 * vec + rows * sizeof(int));
  EXPECT_EQ(moved, 2441232u);
}

// A service-sized SpMV runs on one device in one launch, without
// replicating its operand: four launches behind four copies of x cost
// more than splitting 256 rows saves.
TEST_F(SparseFourDevices, SmallSpmvRunsInOneLaunch) {
  const std::size_t n = 256;
  std::vector<std::uint32_t> rowPtr, colIdx;
  for (std::uint32_t r = 0; r <= n; ++r) {
    rowPtr.push_back(4 * r);
  }
  for (std::uint32_t k = 0; k < 4 * n; ++k) {
    colIdx.push_back((k * 7) % std::uint32_t(n));
  }
  CsrMatrix<int> m(n, n, rowPtr, colIdx, std::vector<int>(4 * n, 2));
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "0");
  Vector<int> x(std::vector<int>(n, 1));
  auto& runtime = skelcl::detail::Runtime::instance();
  auto launches = [&] {
    std::uint64_t total = 0;
    for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
      total += runtime.queue(d).cumulativeKernelLaunches();
    }
    return total;
  };
  const std::uint64_t before = launches();
  Vector<int> y = spmv(m, x);
  EXPECT_EQ(y[0], 8);
  EXPECT_EQ(launches() - before, 1u);
  EXPECT_EQ(y.distribution(), Distribution::Single);
  EXPECT_EQ(x.distribution(), Distribution::Single);
}

// --- degenerate structure ------------------------------------------------

TEST_F(SparseTwoDevices, ZeroRowMatrixYieldsEmptyResult) {
  CsrMatrix<int> empty(0, 5, {0}, {}, {});
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "0");
  Vector<int> x(std::vector<int>{1, 2, 3, 4, 5});
  Vector<int> y = spmv(empty, x);
  EXPECT_EQ(y.size(), 0u);
}

TEST_F(SparseFourDevices, FewerRowsThanDevices) {
  // 2 rows over 4 devices: two shares are zero rows and launch nothing.
  CsrMatrix<int> m(2, 3, {0, 2, 3}, {0, 2, 1}, {4, 5, 6});
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "0");
  Vector<int> x(std::vector<int>{1, 10, 100});
  Vector<int> y = spmv(m, x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_EQ(y[0], 4 * 1 + 5 * 100);
  EXPECT_EQ(y[1], 6 * 10);
}

/// Each device's H2D bytes while `call` runs.
std::vector<std::uint64_t> h2dBytesPerDevice(const std::function<void()>& call) {
  trace::Recorder::instance().start();
  call();
  const trace::Trace trace = trace::Recorder::instance().stop();
  std::vector<std::uint64_t> h2d(
      skelcl::detail::Runtime::instance().deviceCount());
  for (const trace::CommandRecord& c : trace.commands) {
    if (c.engine == std::uint8_t(ocl::Engine::HostToDevice)) {
      h2d[c.device] += c.bytes;
    }
  }
  return h2d;
}

// The three CSR arrays are staged by vector placement: once, in the row
// partition, with a zero-row share uploading only its one row pointer.
// A call keeps a matrix already staged there with its operand already
// replicated, as moving both to one device would cost more than its
// three tiny launches. A failed upload drops what it staged, and a retry
// stages it again.
TEST_F(SparseFourDevices, CsrSlicesStageOnceThroughPlace) {
  // 3 rows over 4 devices: the last share has no rows.
  HostCsr h;
  h.rows = 3;
  h.cols = 5;
  h.rowPtr = {0, 2, 5, 6};
  h.colIdx = {0, 4, 1, 2, 3, 4};
  const std::vector<int> vals = {1, 2, 3, 4, 5, 6};
  const std::vector<int> xs = {1, 10, 100, 1000, 10000};
  const std::vector<int> want = spmvOracle<int>(h, xs, vals);
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "0");
  Vector<int> x(xs);
  x.setDistribution(skelcl::Distribution::Copy);
  x.state().ensureOnDevices();

  CsrMatrix<int> m(h.rows, h.cols, h.rowPtr, h.colIdx, vals);
  EXPECT_EQ(h2dBytesPerDevice([&] { m.state().place(Distribution::Block, 0); }),
            (std::vector<std::uint64_t>{24, 32, 16, 4}));
  std::vector<int> got;
  for (int call = 0; call < 2; ++call) {
    EXPECT_EQ(h2dBytesPerDevice([&] {
                Vector<int> y = spmv(m, x);
                got = y.hostData();
                EXPECT_EQ(y.distribution(), Distribution::Block);
              }),
              (std::vector<std::uint64_t>(4, 0)));
    EXPECT_EQ(got, want);
  }

  struct ResetFaults {
    ~ResetFaults() { FaultInjector::instance().reset(); }
  } resetFaults;
  CsrMatrix<int> fresh(h.rows, h.cols, h.rowPtr, h.colIdx, vals);
  FaultInjector::instance().configure("write@2");
  EXPECT_THROW(
      {
        Vector<int> y = spmv(fresh, x);
        (void)y[0];
      },
      ocl::TransferFailure);
  FaultInjector::instance().reset();
  EXPECT_EQ(spmv(fresh, x).hostData(), want);
}

TEST_F(SparseTwoDevices, EmptyRowsYieldIdentity) {
  // Identity is observable exactly on empty rows.
  CsrMatrix<int> m(3, 2, {0, 0, 1, 1}, {1}, {9});
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "-42");
  Vector<int> x(std::vector<int>{7, 2});
  Vector<int> y = spmv(m, x);
  EXPECT_EQ(y[0], -42);
  EXPECT_EQ(y[1], -42 + 9 * 2);
  EXPECT_EQ(y[2], -42);
}

TEST_F(SparseOneDevice, DuplicateColumnsContributePerEntry) {
  CsrMatrix<int> m(1, 2, {0, 3}, {1, 1, 1}, {2, 3, 4});
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "0");
  Vector<int> x(std::vector<int>{0, 10});
  Vector<int> y = spmv(m, x);
  EXPECT_EQ(y[0], (2 + 3 + 4) * 10);
}

TEST_F(SparseOneDevice, MalformedCsrThrows) {
  using common::InvalidArgument;
  std::vector<std::uint32_t> ok = {0, 1};
  EXPECT_THROW(CsrMatrix<int>(2, 2, ok, {0}, {1}), InvalidArgument);
  EXPECT_THROW(CsrMatrix<int>(1, 2, {1, 1}, {}, {}), InvalidArgument);
  EXPECT_THROW(CsrMatrix<int>(2, 2, {0, 2, 1}, {0, 1}, {1, 2}),
               InvalidArgument);
  EXPECT_THROW(CsrMatrix<int>(1, 2, {0, 1}, {2}, {1}), InvalidArgument);
  EXPECT_THROW(CsrMatrix<int>(1, 2, {0, 2}, {0, 1}, {1}), InvalidArgument);
  // Operand size must match the column count.
  CsrMatrix<int> m(1, 3, {0, 1}, {0}, {1});
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "0");
  Vector<int> tooShort(std::vector<int>{1, 2});
  EXPECT_THROW(spmv(m, tooShort), InvalidArgument);
}

// --- BFS levels ----------------------------------------------------------

/// BFS oracle over an adjacency list (edge u -> v).
std::vector<std::uint32_t> bfsOracle(
    std::size_t n, const std::vector<std::pair<std::uint32_t,
                                               std::uint32_t>>& edges,
    std::uint32_t sourceVertex) {
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (const auto& [u, v] : edges) {
    adj[u].push_back(v);
  }
  std::vector<std::uint32_t> level(n, kInf);
  std::queue<std::uint32_t> q;
  level[sourceVertex] = 0;
  q.push(sourceVertex);
  while (!q.empty()) {
    const std::uint32_t u = q.front();
    q.pop();
    for (std::uint32_t v : adj[u]) {
      if (level[v] == kInf) {
        level[v] = level[u] + 1;
        q.push(v);
      }
    }
  }
  return level;
}

/// Reverse-graph CSR: row v lists the predecessors u of v, so one
/// gather step computes min over incoming levels + 1.
HostCsr reverseCsr(std::size_t n,
                   const std::vector<std::pair<std::uint32_t,
                                               std::uint32_t>>& edges) {
  std::vector<std::vector<std::uint32_t>> pred(n);
  for (const auto& [u, v] : edges) {
    pred[v].push_back(u);
  }
  HostCsr m;
  m.rows = n;
  m.cols = n;
  m.rowPtr.push_back(0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint32_t u : pred[v]) {
      m.colIdx.push_back(u);
      m.values.push_back(1.0f);
    }
    m.rowPtr.push_back(std::uint32_t(m.colIdx.size()));
  }
  return m;
}

void expectBfsMatchesOracle(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint32_t> vtx(0,
                                                   std::uint32_t(n - 1));
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::size_t i = 0; i < 3 * n; ++i) {
    edges.emplace_back(vtx(rng), vtx(rng));
  }
  // A path through every vertex keeps the graph connected.
  for (std::uint32_t v = 1; v < n; ++v) {
    edges.emplace_back(v - 1, v);
  }
  const HostCsr rg = reverseCsr(n, edges);
  const std::vector<std::uint32_t> want = bfsOracle(n, edges, 0);

  CsrMatrix<std::uint32_t> mat(
      rg.rows, rg.cols, rg.rowPtr, rg.colIdx,
      std::vector<std::uint32_t>(rg.values.size(), 1u));
  // Gather: candidate level through an incoming edge (saturating at
  // infinity); combine: min. Relaxing against the previous levels keeps
  // already-settled vertices settled.
  SparseGather<std::uint32_t> expand(
      "uint bfs_g(uint e, uint lu) {\n"
      "  return lu == 0xFFFFFFFFu ? 0xFFFFFFFFu : lu + 1u;\n"
      "}\n",
      "uint bfs_m(uint a, uint b) { return a < b ? a : b; }",
      "0xFFFFFFFFu");
  Zip<std::uint32_t> relax(
      "uint bfs_r(uint old, uint cand) { return old < cand ? old : cand; }");

  std::vector<std::uint32_t> init(n, kInf);
  init[0] = 0;
  Vector<std::uint32_t> levels(init);
  for (std::size_t step = 0; step < n; ++step) {
    Vector<std::uint32_t> next = relax(levels, expand(mat, levels));
    // Fixed point detection reads the host copy (forcing the chain).
    bool changed = false;
    for (std::size_t v = 0; v < n; ++v) {
      if (next[v] != levels[v]) {
        changed = true;
        break;
      }
    }
    levels = std::move(next);
    if (!changed) {
      break;
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    ASSERT_EQ(levels[v], want[v]) << "vertex " << v;
  }
}

TEST_F(SparseOneDevice, BfsLevelsMatchOracle) {
  expectBfsMatchesOracle(64, 17);
}
TEST_F(SparseFourDevices, BfsLevelsMatchOracle) {
  expectBfsMatchesOracle(101, 19);
}

// --- PageRank ------------------------------------------------------------

/// 20 damped PageRank iterations. The device run and the host oracle
/// fold each row's contributions in CSR order with identical float
/// operations, so the comparison is exact.
std::vector<float> pagerankOracle(const HostCsr& m,
                                  const std::vector<float>& scaled,
                                  int iterations) {
  const float d = 0.85f;
  const float base = (1.0f - d) / float(m.rows);
  std::vector<float> r(m.rows, 1.0f / float(m.rows));
  for (int it = 0; it < iterations; ++it) {
    std::vector<float> y(m.rows);
    for (std::size_t v = 0; v < m.rows; ++v) {
      float acc = 0.0f;
      for (std::uint32_t k = m.rowPtr[v]; k < m.rowPtr[v + 1]; ++k) {
        acc = acc + scaled[k] * r[m.colIdx[k]];
      }
      y[v] = base + d * acc;
    }
    r = std::move(y);
  }
  return r;
}

void expectPagerankMatchesOracle(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint32_t> vtx(0,
                                                   std::uint32_t(n - 1));
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::size_t i = 0; i < 4 * n; ++i) {
    edges.emplace_back(vtx(rng), vtx(rng));
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    edges.emplace_back(v, (v + 1) % std::uint32_t(n)); // no dangling nodes
  }
  std::vector<std::uint32_t> outDeg(n, 0);
  for (const auto& [u, v] : edges) {
    ++outDeg[u];
  }
  HostCsr rg = reverseCsr(n, edges);
  // Pre-scale each incoming edge by 1/outdeg(u): the gather is then a
  // plain multiply and the row fold a plain sum — SpMV.
  std::vector<float> scaled(rg.colIdx.size());
  for (std::size_t k = 0; k < scaled.size(); ++k) {
    scaled[k] = 1.0f / float(outDeg[rg.colIdx[k]]);
  }

  CsrMatrix<float> mat(rg.rows, rg.cols, rg.rowPtr, rg.colIdx, scaled);
  SparseGather<float> gather(kSpmvGatherF, kSpmvCombineF, "0.0f");
  Map<float> damp("float pr_d(float y, float base, float d) {\n"
                  "  return base + d * y;\n"
                  "}\n");
  const float d = 0.85f;
  const float base = (1.0f - d) / float(n);

  Vector<float> rank(std::vector<float>(n, 1.0f / float(n)));
  for (int it = 0; it < 20; ++it) {
    Arguments args;
    args.push(base);
    args.push(d);
    rank = damp(gather(mat, rank), args);
  }
  const std::vector<float> want = pagerankOracle(rg, scaled, 20);
  ASSERT_EQ(rank.size(), want.size());
  for (std::size_t v = 0; v < n; ++v) {
    ASSERT_EQ(rank[v], want[v]) << "vertex " << v;
  }
}

TEST_F(SparseOneDevice, PagerankTwentyIterationsMatchesOracle) {
  expectPagerankMatchesOracle(60, 23);
}
TEST_F(SparseTwoDevices, PagerankTwentyIterationsMatchesOracle) {
  expectPagerankMatchesOracle(60, 23);
}

// --- bit-identity across runtime configurations --------------------------

std::vector<float> runSpmvConfig(std::uint32_t gpus,
                                 const char* deviceSpec) {
  skelcl_test::useTempCacheDir();
  if (deviceSpec != nullptr) {
    ocl::configureSystem(ocl::SystemConfig::parse(deviceSpec));
    skelcl::init(skelcl::DeviceSelection::allDevices());
  } else {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
    skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
  }
  const HostCsr m = randomCsr(32771, 32771, 29);
  std::vector<float> x(m.cols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = float((i * 2654435761u) % 997) / 991.0f;
  }
  CsrMatrix<float> mat(m.rows, m.cols, m.rowPtr, m.colIdx, m.values);
  SparseGather<float> spmv(kSpmvGatherF, kSpmvCombineF, "0.0f");
  Vector<float> v(x);
  for (int it = 0; it < 3; ++it) {
    v = spmv(mat, v); // square matrix: iterate
  }
  // Every multi-GPU run replicates the operand of a matrix this large.
  EXPECT_EQ(v.distribution(), gpus == 1 ? Distribution::Single
                                        : Distribution::Block);
  std::vector<float> result(v.begin(), v.end());
  skelcl::terminate();
  return result;
}

TEST(SparseBitIdentity, InvariantAcrossDevicesScheduleAndEngines) {
  const std::vector<float> ref = runSpmvConfig(1, nullptr);
  auto expectSame = [&](const std::vector<float>& got, const char* what) {
    ASSERT_EQ(got.size(), ref.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i], ref[i]) << what << " diverges at " << i;
    }
  };
  expectSame(runSpmvConfig(2, nullptr), "2 devices");
  expectSame(runSpmvConfig(4, nullptr), "4 devices");
  // Unequal row shares: the half-speed device folds fewer rows.
  expectSame(runSpmvConfig(0, "t10*2, t10@0.5x"), "hetero 3-device");

  for (unsigned seed : {2u, 99u}) {
    ::setenv("SKELCL_SCHEDULE_SEED", std::to_string(seed).c_str(), 1);
    expectSame(runSpmvConfig(4, nullptr), "shuffled schedule");
    ::unsetenv("SKELCL_SCHEDULE_SEED");
  }
  ::setenv("SKELCL_ASYNC", "0", 1);
  expectSame(runSpmvConfig(4, nullptr), "async off");
  ::unsetenv("SKELCL_ASYNC");
  ::setenv("SKELCL_FUSION", "0", 1);
  expectSame(runSpmvConfig(4, nullptr), "fusion off");
  ::unsetenv("SKELCL_FUSION");
}

// --- fault recovery ------------------------------------------------------

class SparseFaults : public SparseTwoDevices {
protected:
  void TearDown() override {
    FaultInjector::instance().reset();
    SparseTwoDevices::TearDown();
  }
};

TEST_F(SparseFaults, GatherKernelFaultSurfacesTypedAndRetries) {
  CsrMatrix<int> m(4, 4, {0, 2, 3, 3, 5}, {0, 1, 3, 2, 2}, {1, 2, 3, 4, 5});
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "0");
  const std::vector<int> xs = {1, 10, 100, 1000};

  FaultInjector::instance().configure("kernel~skelcl_spgather@1");
  {
    Vector<int> x(xs);
    EXPECT_THROW(
        {
          Vector<int> y = spmv(m, x);
          (void)y[0];
        },
        ocl::LaunchFailure);
  }

  FaultInjector::instance().reset();
  Vector<int> x(xs);
  Vector<int> y = spmv(m, x);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_EQ(y[0], 1 * 1 + 2 * 10);
  EXPECT_EQ(y[1], 3 * 1000);
  EXPECT_EQ(y[2], 0);
  EXPECT_EQ(y[3], 4 * 100 + 5 * 100);
}

TEST_F(SparseFaults, CsrUploadFaultSurfacesTypedAndRetries) {
  CsrMatrix<int> m(2, 2, {0, 1, 2}, {0, 1}, {3, 4});
  SparseGather<int> spmv(kSpmvGatherI, kSpmvCombineI, "0");

  FaultInjector::instance().configure("write@1");
  {
    Vector<int> x(std::vector<int>{5, 6});
    EXPECT_THROW(
        {
          Vector<int> y = spmv(m, x);
          (void)y[0];
        },
        ocl::TransferFailure);
  }

  FaultInjector::instance().reset();
  Vector<int> x(std::vector<int>{5, 6});
  Vector<int> y = spmv(m, x);
  EXPECT_EQ(y[0], 15);
  EXPECT_EQ(y[1], 24);
}

} // namespace
