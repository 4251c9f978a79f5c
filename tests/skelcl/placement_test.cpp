// Placement matrix: every source state a vector can be in, against
// every consumer that places its input a different way, on 4 GPUs.
//
// Source states: a fresh host vector, and Single on device 0, Single on
// device 2, Block and Copy, each once with the host copy newer than its
// device chunks, once with both current and once with the devices
// newer. Consumers: Map (the input's own layout), Zip (the partner is
// matched to a block-distributed first operand), Scan (gathered onto
// one device), Stencil over a wide grid (row blocks, the layout
// forecast to finish first from every source) and with a radius too
// wide for row blocks (one device), and SparseGather over a large
// matrix (replicated, likewise).
//
// Each case runs on a fresh runtime and pins the result against a host
// oracle, each device's H2D and D2H bytes, the virtual host time the
// call and the download of its result took, and the source's
// distribution afterwards. The pins are what the placement code moved
// when they were written; a change that moves other bytes, or the same
// bytes at other times, must update them on purpose.
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "skelcl_test_util.h"
#include "trace/recorder.h"

namespace {

using skelcl::Boundary;
using skelcl::CsrMatrix;
using skelcl::Distribution;
using skelcl::Map;
using skelcl::Scan;
using skelcl::SparseGather;
using skelcl::Stencil;
using skelcl::StencilShape;
using skelcl::Vector;
using skelcl::Zip;

constexpr std::size_t kDevices = 4;
constexpr std::size_t kWidth = 64;
constexpr std::size_t kRows = 16;
constexpr std::size_t kN = kRows * kWidth;
/// The grid width the row-block stencil consumer spreads.
constexpr std::size_t kWideWidth = 4096;

enum class Freshness { Fresh, HostNewer, BothCurrent, DevicesNewer };

struct Source {
  std::string name;
  Distribution dist;
  std::size_t device;
  Freshness freshness;
};

std::vector<Source> allSources() {
  std::vector<Source> sources = {
      {"fresh", Distribution::Single, 0, Freshness::Fresh}};
  const std::pair<std::string, Freshness> states[] = {
      {"hostNewer", Freshness::HostNewer},
      {"bothCurrent", Freshness::BothCurrent},
      {"devicesNewer", Freshness::DevicesNewer}};
  const Source layouts[] = {{"single0", Distribution::Single, 0, {}},
                            {"single2", Distribution::Single, 2, {}},
                            {"block", Distribution::Block, 0, {}},
                            {"copy", Distribution::Copy, 0, {}}};
  for (const Source& layout : layouts) {
    for (const auto& [state, freshness] : states) {
      sources.push_back(
          {layout.name + "/" + state, layout.dist, layout.device, freshness});
    }
  }
  return sources;
}

std::vector<int> sourceData(std::size_t n) {
  std::vector<int> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = int((i * 37) % 101) - 50;
  }
  return data;
}

/// A vector holding `data` in the state `source` names. Everything it
/// enqueues happens before the measured call.
Vector<int> makeSource(const Source& source, const std::vector<int>& data) {
  switch (source.freshness) {
    case Freshness::Fresh:
      return Vector<int>(data);
    case Freshness::DevicesNewer: {
      std::vector<int> before = data;
      for (int& x : before) --x;
      Vector<int> input(before);
      input.setDistribution(source.dist, source.device);
      Map<int> inc("int inc_pm(int x) { return x + 1; }");
      Vector<int> v = inc(input);
      EXPECT_EQ(v.distribution(), source.dist); // forces the Map
      return v;
    }
    case Freshness::HostNewer:
    case Freshness::BothCurrent: {
      Vector<int> v(data);
      v.setDistribution(source.dist, source.device);
      v.state().ensureOnDevices();
      if (source.freshness == Freshness::HostNewer) {
        v[0] = data[0]; // a host write keeps the chunks, now stale
      }
      return v;
    }
  }
  return Vector<int>();
}

/// Runs `call` (a skeleton call plus the download of its result) and
/// renders what it moved: each device's H2D and D2H bytes, the virtual
/// host time it took, and the source's distribution afterwards.
std::string measure(const std::function<std::vector<int>()>& call,
                    const Vector<int>& source, const std::vector<int>& want) {
  trace::Recorder::instance().start();
  const std::uint64_t start = ocl::hostTimeNs();
  const std::vector<int> got = call();
  const std::uint64_t elapsed = ocl::hostTimeNs() - start;
  const trace::Trace trace = trace::Recorder::instance().stop();
  EXPECT_EQ(got, want);

  std::uint64_t h2d[kDevices] = {};
  std::uint64_t d2h[kDevices] = {};
  for (const trace::CommandRecord& c : trace.commands) {
    if (c.engine == std::uint8_t(ocl::Engine::HostToDevice)) {
      h2d[c.device] += c.bytes;
    } else if (c.engine == std::uint8_t(ocl::Engine::DeviceToHost)) {
      d2h[c.device] += c.bytes;
    }
  }
  const auto row = [](const std::uint64_t* bytes) {
    std::string s;
    for (std::size_t d = 0; d < kDevices; ++d) {
      if (d > 0) s += '/';
      s += std::to_string(bytes[d]);
    }
    return s;
  };
  return "h2d " + row(h2d) + " d2h " + row(d2h) + " +" +
         std::to_string(elapsed) + "ns " +
         skelcl::distributionName(source.distribution());
}

/// A consumer: given the source, returns its measured rendering.
using Consumer =
    std::function<std::string(Vector<int>&, const std::vector<int>&)>;

std::string mapConsumer(Vector<int>& source, const std::vector<int>& data) {
  Map<int> twice("int twice_pm(int x) { return 2 * x + 1; }");
  std::vector<int> want(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) want[i] = 2 * data[i] + 1;
  return measure([&] { return twice(source).hostData(); }, source, want);
}

std::string zipConsumer(Vector<int>& source, const std::vector<int>& data) {
  Zip<int> sub("int sub_pm(int a, int b) { return a - b; }");
  std::vector<int> lhsData(data.size());
  std::vector<int> want(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    lhsData[i] = int(i % 7);
    want[i] = lhsData[i] - data[i];
  }
  Vector<int> lhs(lhsData);
  lhs.setDistribution(Distribution::Block);
  lhs.state().ensureOnDevices();
  return measure([&] { return sub(lhs, source).hostData(); }, source, want);
}

std::string scanConsumer(Vector<int>& source, const std::vector<int>& data) {
  Scan<int> scan("int add_pm(int a, int b) { return a + b; }", "0");
  std::vector<int> want(data.size());
  int acc = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    want[i] = acc;
    acc += data[i];
  }
  return measure([&] { return scan(source).hostData(); }, source, want);
}

/// A 2D clamp stencil summing the (2r+1)² window of a kRows-row grid.
std::string stencilConsumer(Vector<int>& source, const std::vector<int>& data,
                            int radius, std::size_t width) {
  const int w = 2 * radius + 1;
  Stencil<int> st("int sum_pm(__global const int* w, uint st) {\n"
                  "  int s = 0;\n"
                  "  for (int r = 0; r < " + std::to_string(w) + "; ++r)\n"
                  "    for (int c = 0; c < " + std::to_string(w) + "; ++c)\n"
                  "      s = s + w[r * (int)st + c];\n"
                  "  return s;\n"
                  "}\n",
                  StencilShape{std::size_t(radius), Boundary::Clamp, width});
  const auto clamp = [](long v, long n) {
    return v < 0 ? 0 : (v >= n ? n - 1 : v);
  };
  const long cols = long(width);
  std::vector<int> want(data.size());
  for (long r = 0; r < long(kRows); ++r) {
    for (long c = 0; c < cols; ++c) {
      int s = 0;
      for (long dr = -radius; dr <= radius; ++dr) {
        for (long dc = -radius; dc <= radius; ++dc) {
          s += data[std::size_t(clamp(r + dr, kRows) * cols +
                                clamp(c + dc, cols))];
        }
      }
      want[std::size_t(r * cols + c)] = s;
    }
  }
  return measure([&] { return st(source).hostData(); }, source, want);
}

/// 32768 rows of eight entries each, gathering from columns spread over
/// the whole operand.
std::string sparseConsumer(Vector<int>& source, const std::vector<int>& data) {
  const std::size_t rows = 32768;
  const std::uint32_t perRow = 8;
  std::vector<std::uint32_t> rowPtr, colIdx;
  for (std::uint32_t r = 0; r <= rows; ++r) rowPtr.push_back(perRow * r);
  std::vector<int> want(rows);
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t k = 0; k < perRow; ++k) {
      const std::uint32_t c = (r * 16 + k * 131) % kN;
      colIdx.push_back(c);
      want[r] += 3 * data[c];
    }
  }
  CsrMatrix<int> m(rows, kN, rowPtr, colIdx,
                   std::vector<int>(perRow * rows, 3));
  SparseGather<int> spmv("int g_pm(int a, int xj) { return a * xj; }",
                         "int c_pm(int a, int b) { return a + b; }", "0");
  return measure([&] { return spmv(m, source).hostData(); }, source, want);
}

/// Runs `consumer` over every source state of `n` elements, each on a
/// fresh 4-GPU runtime, and checks each rendering against `pins`.
void runMatrix(const Consumer& consumer,
               const std::map<std::string, std::string>& pins,
               std::size_t n = kN) {
  skelcl_test::useTempCacheDir();
  const std::vector<int> data = sourceData(n);
  for (const Source& source : allSources()) {
    SCOPED_TRACE(source.name);
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(kDevices));
    skelcl::init(skelcl::DeviceSelection::nGPUs(kDevices));
    std::string got;
    {
      Vector<int> v = makeSource(source, data);
      got = consumer(v, data);
    }
    skelcl::terminate();
    const auto pin = pins.find(source.name);
    if (pin == pins.end()) {
      ADD_FAILURE() << "no pin: {\"" << source.name << "\", \"" << got
                    << "\"},";
      continue;
    }
    EXPECT_EQ(got, pin->second);
  }
}

TEST(PlacementMatrix, Map) {
  runMatrix(mapConsumer, {
      {"fresh", "h2d 4096/0/0/0 d2h 4096/0/0/0 +30130ns single"},
      {"single0/hostNewer", "h2d 4096/0/0/0 d2h 4096/0/0/0 +36917ns single"},
      {"single0/bothCurrent", "h2d 0/0/0/0 d2h 4096/0/0/0 +28130ns single"},
      {"single0/devicesNewer", "h2d 0/0/0/0 d2h 4096/0/0/0 +38671ns single"},
      {"single2/hostNewer", "h2d 0/0/4096/0 d2h 0/0/4096/0 +36917ns single"},
      {"single2/bothCurrent", "h2d 0/0/0/0 d2h 0/0/4096/0 +28130ns single"},
      {"single2/devicesNewer", "h2d 0/0/0/0 d2h 0/0/4096/0 +38671ns single"},
      {"block/hostNewer", "h2d 1024/1024/1024/1024 d2h 1024/1024/1024/1024 +34866ns block"},
      {"block/bothCurrent", "h2d 0/0/0/0 d2h 1024/1024/1024/1024 +26670ns block"},
      {"block/devicesNewer", "h2d 0/0/0/0 d2h 1024/1024/1024/1024 +30940ns block"},
      {"copy/hostNewer", "h2d 4096/4096/4096/4096 d2h 4096/0/0/0 +30917ns copy"},
      {"copy/bothCurrent", "h2d 0/0/0/0 d2h 4096/0/0/0 +22130ns copy"},
      {"copy/devicesNewer", "h2d 0/0/0/0 d2h 4096/0/0/0 +26671ns copy"},
  });
}

TEST(PlacementMatrix, ZipPartner) {
  runMatrix(zipConsumer, {
      {"fresh", "h2d 1024/1024/1024/1024 d2h 1024/1024/1024/1024 +34938ns block"},
      {"single0/hostNewer", "h2d 1024/1024/1024/1024 d2h 1024/1024/1024/1024 +35725ns block"},
      {"single0/bothCurrent", "h2d 1024/1024/1024/1024 d2h 1024/1024/1024/1024 +35725ns block"},
      {"single0/devicesNewer", "h2d 1024/1024/1024/1024 d2h 5120/1024/1024/1024 +52857ns block"},
      {"single2/hostNewer", "h2d 1024/1024/1024/1024 d2h 1024/1024/1024/1024 +35725ns block"},
      {"single2/bothCurrent", "h2d 1024/1024/1024/1024 d2h 1024/1024/1024/1024 +35725ns block"},
      {"single2/devicesNewer", "h2d 1024/1024/1024/1024 d2h 1024/1024/5120/1024 +52857ns block"},
      {"block/hostNewer", "h2d 1024/1024/1024/1024 d2h 1024/1024/1024/1024 +35134ns block"},
      {"block/bothCurrent", "h2d 0/0/0/0 d2h 1024/1024/1024/1024 +26938ns block"},
      {"block/devicesNewer", "h2d 0/0/0/0 d2h 1024/1024/1024/1024 +26742ns block"},
      {"copy/hostNewer", "h2d 1024/1024/1024/1024 d2h 1024/1024/1024/1024 +35725ns block"},
      {"copy/bothCurrent", "h2d 1024/1024/1024/1024 d2h 1024/1024/1024/1024 +35725ns block"},
      {"copy/devicesNewer", "h2d 1024/1024/1024/1024 d2h 5120/1024/1024/1024 +43529ns block"},
  });
}

TEST(PlacementMatrix, Scan) {
  runMatrix(scanConsumer, {
      {"fresh", "h2d 4096/0/0/0 d2h 4096/0/0/0 +124281ns single"},
      {"single0/hostNewer", "h2d 4096/0/0/0 d2h 4096/0/0/0 +131068ns single"},
      {"single0/bothCurrent", "h2d 0/0/0/0 d2h 4096/0/0/0 +122281ns single"},
      {"single0/devicesNewer", "h2d 0/0/0/0 d2h 4096/0/0/0 +132822ns single"},
      {"single2/hostNewer", "h2d 0/0/4096/0 d2h 0/0/4096/0 +131068ns single"},
      {"single2/bothCurrent", "h2d 0/0/0/0 d2h 0/0/4096/0 +122281ns single"},
      {"single2/devicesNewer", "h2d 0/0/0/0 d2h 0/0/4096/0 +132822ns single"},
      {"block/hostNewer", "h2d 4096/0/0/0 d2h 4096/0/0/0 +124477ns single"},
      {"block/bothCurrent", "h2d 4096/0/0/0 d2h 4096/0/0/0 +124477ns single"},
      {"block/devicesNewer", "h2d 4096/0/0/0 d2h 5120/1024/1024/1024 +142943ns single"},
      {"copy/hostNewer", "h2d 4096/0/0/0 d2h 4096/0/0/0 +125068ns single"},
      {"copy/bothCurrent", "h2d 0/0/0/0 d2h 4096/0/0/0 +116281ns single"},
      {"copy/devicesNewer", "h2d 0/0/0/0 d2h 4096/0/0/0 +120822ns single"},
  });
}

// A wide grid spreads in row-aligned blocks from every source, also
// where one device holds the only current copy: the split saves more
// than the move through the host costs.
TEST(PlacementMatrix, StencilRowBlocks) {
  runMatrix([](Vector<int>& v, const std::vector<int>& d) {
    return stencilConsumer(v, d, 1, kWideWidth);
  }, {
      {"fresh", "h2d 81928/98320/98320/81928 d2h 81928/98320/98320/81928 +179606ns block"},
      {"single0/hostNewer", "h2d 81928/98320/98320/81928 d2h 81928/98320/98320/81928 +229874ns block"},
      {"single0/bothCurrent", "h2d 81928/98320/98320/81928 d2h 81928/98320/98320/81928 +229874ns block"},
      {"single0/devicesNewer", "h2d 81928/98320/98320/81928 d2h 344072/98320/98320/81928 +323930ns block"},
      {"single2/hostNewer", "h2d 81928/98320/98320/81928 d2h 81928/98320/98320/81928 +229758ns block"},
      {"single2/bothCurrent", "h2d 81928/98320/98320/81928 d2h 81928/98320/98320/81928 +229758ns block"},
      {"single2/devicesNewer", "h2d 81928/98320/98320/81928 d2h 81928/98320/360464/81928 +323930ns block"},
      {"block/hostNewer", "h2d 81928/98320/98320/81928 d2h 81928/98320/98320/81928 +192209ns block"},
      {"block/bothCurrent", "h2d 16392/32784/32784/16392 d2h 81928/98320/98320/81928 +171606ns block"},
      {"block/devicesNewer", "h2d 16392/32784/32784/16392 d2h 81928/98320/98320/81928 +182106ns block"},
      {"copy/hostNewer", "h2d 81928/98320/98320/81928 d2h 81928/98320/98320/81928 +230018ns block"},
      {"copy/bothCurrent", "h2d 81928/98320/98320/81928 d2h 81928/98320/98320/81928 +230018ns block"},
      {"copy/devicesNewer", "h2d 81928/98320/98320/81928 d2h 344072/98320/98320/81928 +311930ns block"},
  }, kRows * kWideWidth);
}

// Radius 5 exceeds every device's 4-row share: row blocks cannot run
// the call, which runs on one device: the one holding the grid, else
// the first whose compute engine is free (device 0 here, so the stale
// single2/hostNewer chunk is dropped).
TEST(PlacementMatrix, StencilFallback) {
  runMatrix([](Vector<int>& v, const std::vector<int>& d) {
    return stencilConsumer(v, d, 5, kWidth);
  }, {
      {"fresh", "h2d 4096/0/0/0 d2h 4096/0/0/0 +92330ns single"},
      {"single0/hostNewer", "h2d 4096/0/0/0 d2h 4096/0/0/0 +99117ns single"},
      {"single0/bothCurrent", "h2d 0/0/0/0 d2h 4096/0/0/0 +90330ns single"},
      {"single0/devicesNewer", "h2d 0/0/0/0 d2h 4096/0/0/0 +100871ns single"},
      {"single2/hostNewer", "h2d 4096/0/0/0 d2h 4096/0/0/0 +92330ns single"},
      {"single2/bothCurrent", "h2d 0/0/0/0 d2h 0/0/4096/0 +90330ns single"},
      {"single2/devicesNewer", "h2d 0/0/0/0 d2h 0/0/4096/0 +100871ns single"},
      {"block/hostNewer", "h2d 4096/0/0/0 d2h 4096/0/0/0 +92526ns single"},
      {"block/bothCurrent", "h2d 4096/0/0/0 d2h 4096/0/0/0 +92526ns single"},
      {"block/devicesNewer", "h2d 4096/0/0/0 d2h 5120/1024/1024/1024 +110992ns single"},
      {"copy/hostNewer", "h2d 4096/0/0/0 d2h 4096/0/0/0 +93117ns single"},
      {"copy/bothCurrent", "h2d 0/0/0/0 d2h 4096/0/0/0 +84330ns single"},
      {"copy/devicesNewer", "h2d 0/0/0/0 d2h 4096/0/0/0 +88871ns single"},
  });
}

TEST(PlacementMatrix, SparseGather) {
  runMatrix(sparseConsumer, {
      {"fresh", "h2d 561156/561156/561156/561156 d2h 32768/32768/32768/32768 +230569ns copy"},
      {"single0/hostNewer", "h2d 561156/561156/561156/561156 d2h 32768/32768/32768/32768 +231356ns copy"},
      {"single0/bothCurrent", "h2d 561156/561156/561156/561156 d2h 32768/32768/32768/32768 +231356ns copy"},
      {"single0/devicesNewer", "h2d 561156/561156/561156/561156 d2h 36864/32768/32768/32768 +230569ns copy"},
      {"single2/hostNewer", "h2d 561156/561156/561156/561156 d2h 32768/32768/32768/32768 +231356ns copy"},
      {"single2/bothCurrent", "h2d 561156/561156/561156/561156 d2h 32768/32768/32768/32768 +231356ns copy"},
      {"single2/devicesNewer", "h2d 561156/561156/561156/561156 d2h 32768/32768/36864/32768 +230569ns copy"},
      {"block/hostNewer", "h2d 561156/561156/561156/561156 d2h 32768/32768/32768/32768 +230765ns copy"},
      {"block/bothCurrent", "h2d 561156/561156/561156/561156 d2h 32768/32768/32768/32768 +230765ns copy"},
      {"block/devicesNewer", "h2d 561156/561156/561156/561156 d2h 33792/33792/33792/33792 +230569ns copy"},
      {"copy/hostNewer", "h2d 561156/561156/561156/561156 d2h 32768/32768/32768/32768 +231356ns copy"},
      {"copy/bothCurrent", "h2d 557060/557060/557060/557060 d2h 32768/32768/32768/32768 +222569ns copy"},
      {"copy/devicesNewer", "h2d 557060/557060/557060/557060 d2h 32768/32768/32768/32768 +221782ns copy"},
  });
}

} // namespace
