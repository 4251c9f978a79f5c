// Analyzer invariants: known overlap on synthetic traces, zero overlap
// under serialized (in-order) queues, real overlap under out-of-order
// queues, and a sane critical path.
#include "trace_test_util.h"

#include "trace/analysis.h"
#include "trace/chrome_export.h"

namespace {

using trace::CommandKind;
using trace::CommandRecord;
using trace::Report;
using trace::Trace;

CommandRecord command(std::uint64_t id, std::uint8_t engine,
                      std::uint64_t startNs, std::uint64_t endNs,
                      std::vector<std::uint64_t> deps = {}) {
  CommandRecord c;
  c.id = id;
  c.device = 0;
  c.engine = engine;
  c.kind = engine == 0 ? CommandKind::Kernel : CommandKind::Write;
  c.queuedNs = startNs;
  c.submitNs = startNs;
  c.startNs = startNs;
  c.endNs = endNs;
  c.deps = std::move(deps);
  return c;
}

Trace syntheticTrace(std::vector<CommandRecord> commands) {
  Trace t;
  t.strings = {"", "k"};
  t.devices = {{0, "dev0"}};
  for (CommandRecord& c : commands) {
    c.name = 1;
    t.commands.push_back(std::move(c));
  }
  return t;
}

TEST(Analysis, HalfOverlappedTransfer) {
  // compute [0,100), h2d [50,150): 50 of 100 DMA ns overlap compute.
  const Report r = trace::analyze(syntheticTrace({
      command(1, /*engine=*/0, 0, 100),
      command(2, /*engine=*/1, 50, 150),
  }));
  ASSERT_EQ(r.devices.size(), 1u);
  EXPECT_EQ(r.devices[0].engines[0].busyNs, 100u);
  EXPECT_EQ(r.devices[0].engines[1].busyNs, 100u);
  EXPECT_EQ(r.devices[0].dmaBusyNs, 100u);
  EXPECT_EQ(r.devices[0].overlapNs, 50u);
  EXPECT_DOUBLE_EQ(r.devices[0].overlapRatio, 0.5);
  EXPECT_DOUBLE_EQ(r.overlapRatio, 0.5);
  EXPECT_EQ(r.spanNs, 150u);
}

TEST(Analysis, DisjointEnginesShowNoOverlap) {
  const Report r = trace::analyze(syntheticTrace({
      command(1, /*engine=*/1, 0, 100),
      command(2, /*engine=*/0, 100, 250, {1}),
      command(3, /*engine=*/2, 250, 300, {2}),
  }));
  ASSERT_EQ(r.devices.size(), 1u);
  EXPECT_EQ(r.devices[0].dmaBusyNs, 150u);
  EXPECT_EQ(r.devices[0].overlapNs, 0u);
  EXPECT_DOUBLE_EQ(r.overlapRatio, 0.0);
  // Everything is one dependency chain: critical path == makespan.
  EXPECT_EQ(r.criticalPathNs, 300u);
  EXPECT_EQ(r.spanNs, 300u);
}

TEST(Analysis, CriticalPathFollowsLongestChain) {
  // Two independent chains; the longer one (1->3, 80+120) dominates.
  const Report r = trace::analyze(syntheticTrace({
      command(1, /*engine=*/1, 0, 80),
      command(2, /*engine=*/1, 80, 130),
      command(3, /*engine=*/0, 80, 200, {1}),
  }));
  EXPECT_EQ(r.criticalPathNs, 200u);
}

TEST(Analysis, MergesOverlappingIntervalsWithinAnEngine) {
  // Two overlapping compute spans count busy time once.
  const Report r = trace::analyze(syntheticTrace({
      command(1, /*engine=*/0, 0, 100),
      command(2, /*engine=*/0, 50, 150),
  }));
  EXPECT_EQ(r.devices[0].engines[0].busyNs, 150u);
}

TEST(Analysis, LoadShareAndImbalanceTrackComputeSkew) {
  // Device 0 computes for 300 ns, device 1 for 100 ns: shares 75%/25%,
  // imbalance = max/mean - 1 = 300/200 - 1 = 50%.
  CommandRecord fast = command(1, /*engine=*/0, 0, 300);
  CommandRecord slow = command(2, /*engine=*/0, 0, 100);
  slow.device = 1;
  Trace t = syntheticTrace({fast, slow});
  t.devices.push_back({1, "dev1"});
  const Report r = trace::analyze(t);
  ASSERT_EQ(r.devices.size(), 2u);
  EXPECT_DOUBLE_EQ(r.devices[0].loadShare, 0.75);
  EXPECT_DOUBLE_EQ(r.devices[1].loadShare, 0.25);
  EXPECT_DOUBLE_EQ(r.computeImbalance, 0.5);
  // The rendering exposes both (the skeltrace "load" column and the
  // aggregate imbalance line).
  const std::string text = trace::formatReport(r);
  EXPECT_NE(text.find("load"), std::string::npos);
  EXPECT_NE(text.find("compute load imbalance: 50.0%"), std::string::npos)
      << text;
}

TEST(Analysis, BalancedDevicesHaveZeroImbalance) {
  CommandRecord a = command(1, /*engine=*/0, 0, 200);
  CommandRecord b = command(2, /*engine=*/0, 50, 250);
  b.device = 1;
  Trace t = syntheticTrace({a, b});
  t.devices.push_back({1, "dev1"});
  const Report r = trace::analyze(t);
  EXPECT_DOUBLE_EQ(r.computeImbalance, 0.0);
  EXPECT_DOUBLE_EQ(r.devices[0].loadShare, 0.5);
  EXPECT_DOUBLE_EQ(r.devices[1].loadShare, 0.5);
}

// Byte, cycle, inter-node and concurrency totals come from the commands
// and scheduler spans; a trace without a single counter has them all.
TEST(Analysis, DerivesTotalsFromRecordsWithoutCounters) {
  CommandRecord write = command(1, /*engine=*/1, 0, 10);
  write.bytes = 100;
  CommandRecord kernel = command(2, /*engine=*/0, 10, 20, {1});
  kernel.cycles = 7000;
  CommandRecord read = command(3, /*engine=*/2, 20, 30, {2});
  read.kind = CommandKind::Read;
  read.bytes = 40;
  // A cross-node copy: the out leg drains device 0, the in leg fills
  // device 1; only the in leg counts as interconnect traffic.
  CommandRecord out = command(4, /*engine=*/2, 30, 50, {3});
  out.kind = CommandKind::CopyPeer;
  out.bytes = 64;
  CommandRecord in = command(5, /*engine=*/1, 30, 50, {3});
  in.kind = CommandKind::CopyPeer;
  in.device = 1;
  in.bytes = 64;
  CommandRecord remote = command(6, /*engine=*/0, 50, 60, {5});
  remote.device = 1;
  remote.cycles = 500;
  Trace t = syntheticTrace({write, kernel, read, out, in, remote});
  t.devices.push_back({1, "dev1"});
  t.strings.push_back("copy_node_out");
  t.strings.push_back("copy_node_in");
  t.commands[3].name = 2;
  t.commands[4].name = 3;
  // Two drains of 2 and 3 jobs: lanes 1..2 and 1..3.
  for (std::uint32_t lane : {1u, 2u, 1u, 2u, 3u}) {
    t.hostSpans.push_back({0, trace::HostKind::Scheduler, trace::kNoDevice,
                           lane, 0, 10, 5});
  }
  ASSERT_TRUE(t.counters.empty());

  const Report r = trace::analyze(t);
  EXPECT_EQ(r.h2dBytes, 100u + 64u);
  EXPECT_EQ(r.d2hBytes, 40u + 64u);
  EXPECT_EQ(r.kernelCycles, 7500u);
  EXPECT_EQ(r.internodeBytes, 64u);
  EXPECT_EQ(r.schedulerJobs, 5u);
  EXPECT_EQ(r.schedQueueWaitNs, 25u);
  EXPECT_EQ(r.maxConcurrentJobs, 3u);
}

// Two job-service jobs in flight at once: their TenantJob spans sit on
// window slots 1 and 2, the report counts them as concurrent and the
// Chrome export draws them on separate host rows.
TEST(Analysis, OverlappingTenantJobsCountAsConcurrent) {
  Trace t = syntheticTrace({command(1, /*engine=*/0, 0, 100)});
  t.strings.push_back("tenant-a");
  t.strings.push_back("tenant-b");
  // {name, kind, device, lane, start, end, queue wait}
  t.hostSpans.push_back({2, trace::HostKind::TenantJob, trace::kNoDevice,
                         1, 0, 80, 3});
  t.hostSpans.push_back({3, trace::HostKind::TenantJob, trace::kNoDevice,
                         2, 10, 100, 4});
  t.hostSpans.push_back({2, trace::HostKind::TenantJob, trace::kNoDevice,
                         1, 80, 120, 5});

  const Report r = trace::analyze(t);
  EXPECT_EQ(r.schedulerJobs, 0u);
  EXPECT_EQ(r.maxConcurrentJobs, 2u);
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(r.tenants[0].name, "tenant-a");
  EXPECT_EQ(r.tenants[0].jobs, 2u);
  EXPECT_EQ(r.tenants[0].execNs, 120u);
  EXPECT_EQ(r.tenants[0].queueWaitNs, 8u);
  EXPECT_EQ(r.tenants[1].jobs, 1u);

  const std::string text = trace::formatReport(r);
  EXPECT_NE(text.find("tenants (job service)   max concurrent jobs: 2"),
            std::string::npos);
  const std::string json = trace::chromeJson(t);
  EXPECT_NE(json.find("\"tid\":1,\"ts\":0.000,\"dur\":0.080,"
                      "\"name\":\"tenant-a\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tid\":2,"), std::string::npos);
}

// Exec time is busy time: two of one tenant's jobs that overlap in the
// service's window count their shared stretch once.
TEST(Analysis, OverlappingJobsOfOneTenantCountTheirUnion) {
  Trace t = syntheticTrace({command(1, /*engine=*/0, 0, 100)});
  t.strings.push_back("tenant-a");
  // {name, kind, device, lane, start, end, queue wait}
  t.hostSpans.push_back({2, trace::HostKind::TenantJob, trace::kNoDevice,
                         1, 0, 80, 3});
  t.hostSpans.push_back({2, trace::HostKind::TenantJob, trace::kNoDevice,
                         2, 40, 100, 4});
  t.hostSpans.push_back({2, trace::HostKind::TenantJob, trace::kNoDevice,
                         1, 150, 170, 5});

  const Report r = trace::analyze(t);
  ASSERT_EQ(r.tenants.size(), 1u);
  EXPECT_EQ(r.tenants[0].jobs, 3u);
  EXPECT_EQ(r.tenants[0].execNs, 120u); // [0,100) and [150,170)
  EXPECT_EQ(r.tenants[0].queueWaitNs, 12u);
}

// Decisions are counted by name and listed in the report.
TEST(Analysis, CountsDecisionsByName) {
  Trace t = syntheticTrace({command(1, /*engine=*/0, 0, 10)});
  t.strings.push_back("fusion.declined: fanout");
  t.strings.push_back("stencil.layout: row-aligned");
  for (std::uint32_t name : {2u, 3u, 2u}) {
    t.hostSpans.push_back({name, trace::HostKind::Decision,
                           trace::kNoDevice, 0, 7, 7, 0});
  }

  const Report r = trace::analyze(t);
  EXPECT_EQ(r.decisions,
            (std::map<std::string, std::uint64_t>{
                {"fusion.declined: fanout", 2},
                {"stencil.layout: row-aligned", 1}}));
  EXPECT_EQ(r.skeletonSpans, 0u);
  const std::string text = trace::formatReport(r);
  EXPECT_NE(text.find("decisions:\n  2x fusion.declined: fanout\n"
                      "  1x stencil.layout: row-aligned\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(trace::formatReport(trace::analyze(syntheticTrace(
                                    {command(1, 0, 0, 10)})))
                .find("decisions:"),
            std::string::npos);
}

// Cache hits and misses are the CacheHit and Build host spans; no
// counter restates them.
TEST(Analysis, CountsCacheHitsAndMissesFromHostSpans) {
  Trace t = syntheticTrace({command(1, /*engine=*/0, 0, 10)});
  for (trace::HostKind kind :
       {trace::HostKind::Build, trace::HostKind::CacheHit,
        trace::HostKind::CacheHit, trace::HostKind::Skeleton,
        trace::HostKind::Build, trace::HostKind::CacheHit}) {
    t.hostSpans.push_back({0, kind, trace::kNoDevice, 0, 5, 5, 64});
  }
  ASSERT_TRUE(t.counters.empty());

  const Report r = trace::analyze(t);
  EXPECT_EQ(r.cacheHits, 3u);
  EXPECT_EQ(r.cacheMisses, 2u);
  EXPECT_EQ(r.skeletonSpans, 1u);
}

TEST(Analysis, SerializedQueuesHaveZeroOverlap) {
  const auto run =
      trace_test::runWorkload(/*traced=*/true, /*serialized=*/true);
  const Report r = trace::analyze(run.trace);
  ASSERT_FALSE(run.trace.commands.empty());
  EXPECT_GT(r.devices[0].dmaBusyNs, 0u);
  // In-order queues start every command only after the whole device is
  // idle, so DMA can never run while compute runs — exactly zero.
  EXPECT_EQ(r.devices[0].overlapNs, 0u);
  EXPECT_DOUBLE_EQ(r.overlapRatio, 0.0);
}

TEST(Analysis, OutOfOrderQueuesOverlapTransfersWithCompute) {
  const auto ooo =
      trace_test::runWorkload(/*traced=*/true, /*serialized=*/false);
  const auto ser =
      trace_test::runWorkload(/*traced=*/true, /*serialized=*/true);
  const Report rOoo = trace::analyze(ooo.trace);
  const Report rSer = trace::analyze(ser.trace);
  EXPECT_GT(rOoo.overlapRatio, 0.0);
  EXPECT_GT(rOoo.overlapRatio, rSer.overlapRatio);
  // Same commands either way; only the schedule differs.
  EXPECT_EQ(ooo.kernelCycles, ser.kernelCycles);
  EXPECT_EQ(rOoo.kernelCycles, rSer.kernelCycles);
}

TEST(Analysis, RealWorkloadReportIsConsistent) {
  const auto run =
      trace_test::runWorkload(/*traced=*/true, /*serialized=*/false);
  const Report r = trace::analyze(run.trace);
  ASSERT_EQ(r.devices.size(), 1u);
  for (const auto& e : r.devices[0].engines) {
    EXPECT_LE(e.busyNs, r.devices[0].spanNs);
    EXPECT_GE(e.busyFraction, 0.0);
    EXPECT_LE(e.busyFraction, 1.0);
  }
  EXPECT_LE(r.devices[0].overlapNs, r.devices[0].dmaBusyNs);
  EXPECT_LE(r.criticalPathNs, r.spanNs);
  EXPECT_GT(r.criticalPathNs, 0u);
  // The counter totals match the per-queue bookkeeping.
  EXPECT_EQ(r.kernelCycles, run.kernelCycles);
  EXPECT_GT(r.h2dBytes, 0u);
  EXPECT_GT(r.d2hBytes, 0u);
  ASSERT_FALSE(r.kernels.empty());
  for (std::size_t i = 1; i < r.kernels.size(); ++i) {
    EXPECT_GE(r.kernels[i - 1].totalNs, r.kernels[i].totalNs);
  }
  EXPECT_GT(r.skeletonSpans, 0u);
  // The human-readable rendering mentions every device and engine.
  const std::string text = trace::formatReport(r);
  EXPECT_NE(text.find("compute"), std::string::npos);
  EXPECT_NE(text.find("h2d dma"), std::string::npos);
  EXPECT_NE(text.find("overlap"), std::string::npos);
}

} // namespace
