// Multi-node cluster simulation (DESIGN.md §6j): the node() spec
// grammar and interconnect tiers, the two-level (node, then device)
// block partition, cross-node copy timing over the simulated
// interconnect, per-node fault isolation, and the per-node energy
// accounting the trace analyzer derives from the power envelopes.
#include <cstdlib>
#include <numeric>

#include "skelcl/detail/partition.h"
#include "skelcl_test_util.h"
#include "trace/analysis.h"
#include "trace/recorder.h"
#include "trace/serialize.h"

namespace {

using skelcl::Distribution;
using skelcl::Map;
using skelcl::Reduce;
using skelcl::Vector;
using skelcl::detail::Runtime;
using skelcl::detail::nodeBlockPartition;
using skelcl::detail::weightedPartition;

// ---------------------------------------------------------------------
// SystemConfig::parse: the node(...) cluster grammar.
// ---------------------------------------------------------------------

TEST(ClusterSpecParse, NodeEntryBuildsMultiNodeMachine) {
  const ocl::SystemConfig config =
      ocl::SystemConfig::parse("node(t10*4)*2@ib");
  ASSERT_EQ(config.devices.size(), 8u);
  ASSERT_EQ(config.nodeOf.size(), 8u);
  EXPECT_EQ(config.nodeCount(), 2u);
  for (std::size_t d = 0; d < 8; ++d) {
    EXPECT_EQ(config.nodeOf[d], d < 4 ? 0u : 1u) << d;
    EXPECT_EQ(config.devices[d].name, ocl::DeviceSpec::teslaT10().name);
  }
  EXPECT_EQ(config.interconnect.name, "ib");
  EXPECT_DOUBLE_EQ(config.interconnect.latencyUs, 2.0);
  EXPECT_DOUBLE_EQ(config.interconnect.bandwidthGBs, 4.0);
}

TEST(ClusterSpecParse, EthernetTierIsSlowerThanInfiniband) {
  const ocl::SystemConfig eth =
      ocl::SystemConfig::parse("node(t10)*2@eth");
  EXPECT_EQ(eth.interconnect.name, "eth");
  EXPECT_DOUBLE_EQ(eth.interconnect.latencyUs, 50.0);
  EXPECT_DOUBLE_EQ(eth.interconnect.bandwidthGBs, 1.25);

  const ocl::SystemConfig ib = ocl::SystemConfig::parse("node(t10)*2");
  // Default tier is InfiniBand.
  EXPECT_EQ(ib.interconnect.name, "ib");
  EXPECT_LT(ib.interconnect.latencyUs, eth.interconnect.latencyUs);
  EXPECT_GT(ib.interconnect.bandwidthGBs, eth.interconnect.bandwidthGBs);
}

TEST(ClusterSpecParse, SingleNodeSpecMatchesBareGrammar) {
  // node(...) around a device list describes the same machine the bare
  // grammar does — same devices, same order, every device on node 0.
  const ocl::SystemConfig bare =
      ocl::SystemConfig::parse("t10*2,t10@0.5x,cpu");
  const ocl::SystemConfig wrapped =
      ocl::SystemConfig::parse("node(t10*2,t10@0.5x,cpu)");
  ASSERT_EQ(wrapped.devices.size(), bare.devices.size());
  for (std::size_t d = 0; d < bare.devices.size(); ++d) {
    EXPECT_EQ(wrapped.devices[d].name, bare.devices[d].name) << d;
    EXPECT_DOUBLE_EQ(wrapped.devices[d].clockGHz, bare.devices[d].clockGHz)
        << d;
    EXPECT_EQ(wrapped.nodeOf[d], 0u) << d;
  }
  EXPECT_EQ(wrapped.nodeCount(), 1u);
  EXPECT_EQ(bare.nodeCount(), 1u);
}

TEST(ClusterSpecParse, NodeScaleAppliesToEveryMemberAndComposes) {
  const ocl::SystemConfig config =
      ocl::SystemConfig::parse("node(t10*2)*2@0.5x@ib");
  ASSERT_EQ(config.devices.size(), 4u);
  const ocl::DeviceSpec base = ocl::DeviceSpec::teslaT10();
  for (const ocl::DeviceSpec& d : config.devices) {
    EXPECT_DOUBLE_EQ(d.clockGHz, base.clockGHz * 0.5);
  }
  // Inner and node scales compose through DeviceSpec::scaled — an inner
  // @0.5x times a node @2x is exactly the base device again, with no
  // stacked " @Nx @Nx" name suffixes.
  const ocl::SystemConfig composed =
      ocl::SystemConfig::parse("node(t10@0.5x)@2x");
  ASSERT_EQ(composed.devices.size(), 1u);
  EXPECT_EQ(composed.devices[0].name, base.name);
  EXPECT_DOUBLE_EQ(composed.devices[0].clockGHz, base.clockGHz);
}

TEST(ClusterSpecParse, ZeroDeviceNodeIsTypedAndNamesTheToken) {
  try {
    ocl::SystemConfig::parse("node(t10)*2,node()");
    FAIL() << "expected InvalidArgument";
  } catch (const common::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("zero devices"), std::string::npos) << what;
    EXPECT_NE(what.find("node()"), std::string::npos) << what;
  }
}

TEST(ClusterSpecParse, RejectsMalformedClusterSpecs) {
  for (const char* spec : {
           "node(t10),cpu",            // node and bare entries mixed
           "node(node(t10))",          // nodes do not nest
           "node(t10)@ib,node(t10)@eth", // one network joins all nodes
           "node(t10)@myrinet",        // unknown tier
           "node(t10",                 // unmatched '('
           "node(t10))",               // unmatched ')'
           "node(t10)*0",              // zero copies
           "node(t10)@ib@eth",         // duplicate tier
           "node(t10)junk",            // trailing junk
           "nodule(t10)",              // not the node keyword
       }) {
    EXPECT_THROW(ocl::SystemConfig::parse(spec), common::InvalidArgument)
        << "spec '" << spec << "' should be rejected";
  }
}

// ---------------------------------------------------------------------
// nodeBlockPartition: the two-level largest-remainder split.
// ---------------------------------------------------------------------

TEST(NodePartition, SingleNodeIsExactlyTheFlatSplit) {
  const std::vector<double> w = {2.0, 1.0, 1.0};
  const std::vector<std::uint32_t> oneNode = {0, 0, 0};
  for (std::size_t n : {0ul, 1ul, 7ul, 100ul, 1003ul}) {
    EXPECT_EQ(nodeBlockPartition(n, w, oneNode), weightedPartition(n, w))
        << "n=" << n;
    EXPECT_EQ(nodeBlockPartition(n, w, {}), weightedPartition(n, w))
        << "n=" << n;
  }
}

TEST(NodePartition, TwoLevelSplitPinsNodeSharesFirst) {
  // 10 elements over 2 nodes x 2 equal devices: node shares {5, 5},
  // then {3, 2} within each node.
  EXPECT_EQ(nodeBlockPartition(10, std::vector<double>(4, 1.0),
                               {0, 0, 1, 1}),
            (std::vector<std::size_t>{3, 2, 3, 2}));
  // Skewed devices: node weights are the summed member weights (3:1),
  // so the first node takes 12 of 16, split 8/4 inside.
  EXPECT_EQ(nodeBlockPartition(16, {2.0, 1.0, 0.5, 0.5}, {0, 0, 1, 1}),
            (std::vector<std::size_t>{8, 4, 2, 2}));
}

TEST(NodePartition, SumInvariantAndContiguityEnforced) {
  const std::vector<double> w(6, 1.0);
  const std::vector<std::uint32_t> nodes = {0, 0, 1, 1, 2, 2};
  for (std::size_t n = 0; n < 200; ++n) {
    const auto counts = nodeBlockPartition(n, w, nodes);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
              n)
        << "n=" << n;
  }
  // Interleaved node membership would break chunk contiguity; rejected.
  EXPECT_THROW(nodeBlockPartition(10, std::vector<double>(4, 1.0),
                                  {0, 1, 0, 1}),
               common::Error);
}

// ---------------------------------------------------------------------
// Cross-node copy timing: the interconnect joins the legs.
// ---------------------------------------------------------------------

class ClusterTiming : public ::testing::Test {
protected:
  /// Duration of a cross-device copy of `bytes` on the given platform.
  static std::uint64_t copyDurationNs(const std::string& spec,
                                      std::size_t bytes) {
    ocl::configureSystem(ocl::SystemConfig::parse(spec));
    auto devices = ocl::getPlatforms()[0].devices(ocl::DeviceType::All);
    ocl::Context ctx({devices[0], devices[1]});
    ocl::CommandQueue q0(devices[0]);
    ocl::CommandQueue q1(devices[1]);
    std::vector<char> data(bytes, 7);
    ocl::Buffer src = ctx.createBuffer(devices[0], bytes);
    ocl::Buffer dst = ctx.createBuffer(devices[1], bytes);
    ocl::Event up = q0.enqueueWriteBuffer(src, 0, bytes, data.data());
    ocl::Event copy = q1.enqueueCopyBuffer(src, 0, dst, 0, bytes, {up});
    return copy.durationNs();
  }
};

TEST_F(ClusterTiming, CrossNodeCopyPaysTheInterconnectWireAndLatency) {
  const std::size_t bytes = 4u << 20;
  const ocl::DeviceSpec t10 = ocl::DeviceSpec::teslaT10();
  const double pcieWireNs = double(bytes) / (t10.pcieBandwidthGBs * 1e9) * 1e9;
  const double pcieLatNs = t10.pcieLatencyUs * 1e3;

  // InfiniBand: 4 GB/s < PCIe 5.2 GB/s, so the wire time is the ib leg;
  // latency is one PCIe hop plus the interconnect's 2 us.
  const double ibWireNs = double(bytes) / (4.0 * 1e9) * 1e9;
  EXPECT_EQ(copyDurationNs("node(t10)*2@ib", bytes),
            std::uint64_t(std::max(pcieWireNs, ibWireNs) + pcieLatNs +
                          2.0 * 1e3));

  // 10GbE: slower wire, much higher latency.
  const double ethWireNs = double(bytes) / (1.25 * 1e9) * 1e9;
  EXPECT_EQ(copyDurationNs("node(t10)*2@eth", bytes),
            std::uint64_t(std::max(pcieWireNs, ethWireNs) + pcieLatNs +
                          50.0 * 1e3));

  EXPECT_GT(copyDurationNs("node(t10)*2@eth", bytes),
            copyDurationNs("node(t10)*2@ib", bytes));
  // Same-node peer copies never touch the interconnect.
  EXPECT_LT(copyDurationNs("t10*2", bytes),
            copyDurationNs("node(t10)*2@ib", bytes));
}

// ---------------------------------------------------------------------
// Runtime integration: distribution, bit-identity, fault isolation.
// ---------------------------------------------------------------------

class ClusterTest : public ::testing::Test {
protected:
  void initPlatform(const std::string& spec) {
    skelcl_test::useTempCacheDir();
    ocl::configureSystem(ocl::SystemConfig::parse(spec));
    skelcl::init(skelcl::DeviceSelection::allDevices());
  }

  void TearDown() override {
    ocl::FaultInjector::instance().reset();
    if (Runtime::instance().initialized()) {
      skelcl::terminate();
    }
  }

  static std::vector<std::size_t> chunkCounts(const Vector<float>& v) {
    std::vector<std::size_t> counts;
    for (const auto& chunk : v.state().chunks()) {
      counts.push_back(chunk.count);
    }
    return counts;
  }
};

TEST_F(ClusterTest, BlockDistributionUsesTwoLevelNodeSplit) {
  initPlatform("node(t10*2)*2@ib");
  EXPECT_EQ(Runtime::instance().deviceNodes(),
            (std::vector<std::uint32_t>{0, 0, 1, 1}));
  EXPECT_EQ(Runtime::instance().blockPartition(10),
            (std::vector<std::size_t>{3, 2, 3, 2}));

  Vector<float> v(10, 1.0f);
  v.setDistribution(Distribution::Block);
  v.state().ensureOnDevices();
  EXPECT_EQ(chunkCounts(v), (std::vector<std::size_t>{3, 2, 3, 2}));
}

TEST_F(ClusterTest, SingleNodeSpecBitIdenticalToBareGrammar) {
  auto run = [this](const std::string& spec) {
    initPlatform(spec);
    std::vector<float> data(1003);
    std::iota(data.begin(), data.end(), 0.0f);
    Vector<float> v(data);
    v.setDistribution(Distribution::Block);
    v.state().ensureOnDevices();
    const auto layout = chunkCounts(v);
    Map<float> triple("float ctriple(float x) { return 3.0f * x; }");
    Reduce<float> sum("float cadd(float x, float y) { return x + y; }");
    Vector<float> out = triple(v);
    const float total = sum(out).getValue();
    std::vector<float> host = out.hostData();
    skelcl::terminate();
    return std::make_tuple(layout, host, total);
  };
  const auto bare = run("t10*2");
  const auto wrapped = run("node(t10*2)");
  EXPECT_EQ(std::get<0>(bare), std::get<0>(wrapped));
  EXPECT_EQ(std::get<1>(bare), std::get<1>(wrapped));
  EXPECT_EQ(std::get<2>(bare), std::get<2>(wrapped));
}

TEST_F(ClusterTest, MapOutputsBitIdenticalAcrossNodeCounts) {
  auto run = [this](const std::string& spec) {
    initPlatform(spec);
    std::vector<float> data(4097);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = float((i * 13) % 97) * 0.0625f;
    }
    Vector<float> v(data);
    v.setDistribution(Distribution::Block);
    Map<float> heavy(
        "float cheavy(float x) {\n"
        "  float acc = x;\n"
        "  for (int i = 0; i < 16; ++i) { acc = acc * 1.0001f + 0.5f; }\n"
        "  return acc;\n"
        "}");
    Vector<float> out = heavy(v);
    std::vector<float> host = out.hostData();
    skelcl::terminate();
    return host;
  };
  const auto one = run("node(t10*4)@ib");
  const auto two = run("node(t10*2)*2@ib");
  const auto four = run("node(t10)*4@eth");
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST_F(ClusterTest, MixedSpeedNodesSplitTwoToOneAndMatchOneGpu) {
  // A full-speed and a half-speed two-GPU node: node weights are the
  // summed peak throughput, 2:1, so 3001 elements split {2001, 1000}
  // across the nodes before each node splits its share evenly.
  auto run = [this](const std::string& spec) {
    initPlatform(spec);
    std::vector<float> a(3001), b(3001);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = float((i * 13) % 97) * 0.0625f;
      b[i] = float((i * 7) % 89) * 0.125f;
    }
    Vector<float> va(a), vb(b);
    va.setDistribution(Distribution::Block);
    vb.setDistribution(Distribution::Block);
    Map<float> heavy(
        "float mheavy(float x) {\n"
        "  float acc = x;\n"
        "  for (int i = 0; i < 16; ++i) { acc = acc * 1.0001f + 0.5f; }\n"
        "  return acc;\n"
        "}");
    skelcl::Zip<float> mul("float mmul(float x, float y) { return x * y; }");
    Vector<float> out = mul(heavy(va), vb);
    std::vector<float> host = out.hostData();
    const std::vector<std::size_t> layout = chunkCounts(va);
    skelcl::terminate();
    return std::make_pair(layout, host);
  };

  initPlatform("node(t10*2),node(t10*2@0.5x)@ib");
  EXPECT_EQ(Runtime::instance().deviceNodes(),
            (std::vector<std::uint32_t>{0, 0, 1, 1}));
  const std::vector<std::size_t> split = {1001, 1000, 500, 500};
  EXPECT_EQ(nodeBlockPartition(3001, Runtime::instance().blockWeights(),
                               Runtime::instance().deviceNodes()),
            split);
  skelcl::terminate();

  const auto mixed = run("node(t10*2),node(t10*2@0.5x)@ib");
  const auto one = run("t10");
  EXPECT_EQ(mixed.first, split);
  EXPECT_EQ(mixed.second, one.second);
}

TEST_F(ClusterTest, StencilWithFewerRowsThanDevicesFallsBackCleanly) {
  auto run = [this](const std::string& spec) {
    initPlatform(spec);
    std::vector<float> grid(2 * 8); // 2 rows on up to 8 devices
    for (std::size_t i = 0; i < grid.size(); ++i) {
      grid[i] = float(i) * 0.25f;
    }
    skelcl::Stencil<float> blur(
        "float cblur(__global const float* w, uint st) {\n"
        "  return 0.25f * (w[1] + w[(int)st] + w[(int)st + 2]\n"
        "                  + w[2 * (int)st + 1]);\n"
        "}",
        skelcl::StencilShape{1, skelcl::Boundary::Clamp, 8});
    Vector<float> v(grid);
    Vector<float> out = blur(v);
    std::vector<float> host = out.hostData();
    skelcl::terminate();
    return host;
  };
  const auto single = run("t10");
  const auto cluster = run("node(t10*2)*4@ib");
  EXPECT_EQ(single, cluster);
}

TEST_F(ClusterTest, FaultOnOneNodeLeavesOtherNodesIntact) {
  initPlatform("node(t10)*2@ib");
  Map<int> twice("int ctwice(int x) { return 2 * x; }");
  std::vector<int> data(512);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> input(data);
  input.setDistribution(Distribution::Block);

  ocl::FaultInjector::instance().configure("kernel@1=lost");
  try {
    Vector<int> out = twice(input);
    (void)out[0];
    FAIL() << "expected DeviceLost";
  } catch (const ocl::DeviceLost& e) {
    EXPECT_EQ(e.deviceIndex(), 0u); // node 0's only device
  }
  ocl::FaultInjector::instance().reset();

  auto& runtime = Runtime::instance();
  EXPECT_EQ(runtime.devices()[0].node(), 0u);
  EXPECT_EQ(runtime.devices()[1].node(), 1u);

  // Node 0's device stays lost until the system is reconfigured...
  EXPECT_THROW(runtime.context().createBuffer(runtime.devices()[0], 64),
               ocl::DeviceLost);

  // ...but node 1's device still moves data and computes. A full
  // write/read roundtrip over its queue works untouched.
  std::vector<int> payload(128);
  std::iota(payload.begin(), payload.end(), 100);
  ocl::Buffer buf = runtime.context().createBuffer(
      runtime.devices()[1], payload.size() * sizeof(int));
  runtime.queue(1).enqueueWriteBuffer(
      buf, 0, payload.size() * sizeof(int), payload.data());
  std::vector<int> back(payload.size(), 0);
  runtime.queue(1).enqueueReadBuffer(buf, 0, back.size() * sizeof(int),
                                     back.data());
  runtime.queue(1).finish();
  EXPECT_EQ(back, payload);

  // Host data of the failed workload survived for a retry elsewhere.
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(input[i], int(i)) << i;
  }
}

// ---------------------------------------------------------------------
// Trace: cross-node traffic counters and the per-node energy ledger.
// ---------------------------------------------------------------------

TEST_F(ClusterTest, TraceCarriesNodeTrafficAndReconcilingEnergy) {
  initPlatform("node(t10)*2@ib");
  const auto& devices = Runtime::instance().devices();
  std::vector<std::uint64_t> dma0, cycles0;
  for (const ocl::Device& d : devices) {
    dma0.push_back(d.state().dmaBytes());
    cycles0.push_back(d.state().kernelCycles());
  }
  trace::Recorder::instance().start();

  // A stencil across the two single-device nodes ships halo rows over
  // the interconnect every iteration; the map adds pure compute.
  const std::size_t width = 256, rows = 256;
  std::vector<float> grid(rows * width);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = float((i * 31) % 101) * 0.125f;
  }
  skelcl::Stencil<float> heat(
      "float cheat(__global const float* w, uint st) {\n"
      "  return 0.25f * (w[1] + w[(int)st] + w[(int)st + 2]\n"
      "                  + w[2 * (int)st + 1]);\n"
      "}",
      skelcl::StencilShape{1, skelcl::Boundary::Clamp,
                           std::uint32_t(width)});
  Vector<float> v(grid);
  for (int it = 0; it < 3; ++it) {
    v = heat(v);
  }
  (void)v.hostData();
  for (std::size_t d = 0; d < Runtime::instance().deviceCount(); ++d) {
    Runtime::instance().queue(d).finish();
  }

  const trace::Trace t = trace::Recorder::instance().stop();

  // The binary format round-trips the v3 node/power fields.
  const trace::Trace rt = trace::deserialize(trace::serialize(t));
  ASSERT_EQ(rt.devices.size(), 2u);
  EXPECT_EQ(rt.devices[1].node, 1u);
  EXPECT_DOUBLE_EQ(rt.devices[0].idlePowerW, 60.0);
  EXPECT_DOUBLE_EQ(rt.devices[0].busyPowerW, 200.0);
  EXPECT_DOUBLE_EQ(rt.devices[0].transferNjPerByte, 0.5);

  const trace::Report report = trace::analyze(t);

  // Every step spread the grid over both nodes.
  const auto layout = report.decisions.find("stencil.layout: row-aligned");
  ASSERT_NE(layout, report.decisions.end());
  EXPECT_EQ(layout->second, 3u);

  // Cross-node traffic flowed (summed from the copy_node_in legs), and
  // every byte that left a node over a copy_node_out leg arrived.
  EXPECT_GT(report.internodeBytes, 0u);
  std::uint64_t nodeOutBytes = 0;
  for (const trace::CommandRecord& c : t.commands) {
    if (t.str(c.name) == "copy_node_out") {
      nodeOutBytes += c.bytes;
    }
  }
  EXPECT_EQ(report.internodeBytes, nodeOutBytes);

  // Per-device energy follows the documented formula to within 1%.
  ASSERT_EQ(report.devices.size(), 2u);
  for (const trace::DeviceReport& dev : report.devices) {
    const double expectedNj = 60.0 * double(report.spanNs) +
                              (200.0 - 60.0) *
                                  double(dev.engines[0].busyNs) +
                              0.5 * double(dev.dmaBytes);
    ASSERT_GT(dev.energyJ, 0.0);
    EXPECT_NEAR(dev.energyJ, expectedNj * 1e-9, 0.01 * expectedNj * 1e-9)
        << "device " << dev.device;
    EXPECT_GT(dev.perfPerWatt, 0.0) << "device " << dev.device;
  }

  // The live DeviceState totals saw exactly the traced work: both legs
  // of every cross-node copy count as DMA bytes on their device.
  for (const trace::DeviceReport& dev : report.devices) {
    ASSERT_LT(dev.device, devices.size());
    const ocl::DeviceState& state = devices[dev.device].state();
    EXPECT_EQ(state.dmaBytes() - dma0[dev.device], dev.dmaBytes)
        << "device " << dev.device;
    EXPECT_EQ(state.kernelCycles() - cycles0[dev.device], dev.kernelCycles)
        << "device " << dev.device;
  }

  // Node rollups: one row per node, energies summing to the total.
  ASSERT_EQ(report.nodes.size(), 2u);
  double nodeSum = 0.0;
  std::uint32_t devicesSeen = 0;
  for (const trace::NodeReport& n : report.nodes) {
    EXPECT_EQ(n.devices, 1u);
    EXPECT_GT(n.energyJ, 0.0);
    nodeSum += n.energyJ;
    devicesSeen += n.devices;
  }
  EXPECT_EQ(devicesSeen, 2u);
  EXPECT_NEAR(nodeSum, report.totalEnergyJ, 0.01 * report.totalEnergyJ);
  EXPECT_GT(report.perfPerWatt, 0.0);

  // The human-readable report surfaces the new columns.
  const std::string text = trace::formatReport(report);
  EXPECT_NE(text.find("per-node energy"), std::string::npos) << text;
  EXPECT_NE(text.find("cross-node traffic"), std::string::npos) << text;
}

} // namespace
