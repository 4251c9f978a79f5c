// Recorder contract: nothing recorded while disabled, well-ordered
// records from a real workload, and lossless binary / Chrome-JSON
// round-trips.
#include "trace_test_util.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/byte_stream.h"
#include "trace/chrome_export.h"
#include "trace/serialize.h"

namespace {

using trace::CommandKind;
using trace::CommandRecord;
using trace::HostKind;
using trace::Recorder;
using trace::Trace;

std::string tempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("skelcl-trace-test-") + std::to_string(::getpid()) +
           "-" + name))
      .string();
}

TEST(Recorder, DisabledCollectsNothing) {
  ASSERT_FALSE(Recorder::enabled());
  {
    trace::ScopedHostSpan span(HostKind::Skeleton, "ignored");
  }
  Recorder::instance().recordCounter("ignored", trace::kNoDevice, 0, 1);
  const Trace t = Recorder::instance().stop();
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.commands.empty());
  EXPECT_TRUE(t.hostSpans.empty());
  EXPECT_TRUE(t.counters.empty());
}

TEST(Recorder, DisabledWorkloadLeavesNoTrace) {
  trace_test::runWorkload(/*traced=*/false, /*serialized=*/false);
  EXPECT_TRUE(Recorder::instance().stop().empty());
}

TEST(Recorder, WorkloadRecordsOrderedCommands) {
  const auto run =
      trace_test::runWorkload(/*traced=*/true, /*serialized=*/false);
  const Trace& t = run.trace;

  ASSERT_FALSE(t.commands.empty());
  // One simulated GPU plus the testbed's host CPU device.
  ASSERT_GE(t.devices.size(), 1u);
  EXPECT_EQ(t.devices[0].index, 0u);
  EXPECT_FALSE(t.devices[0].name.empty());

  std::uint64_t lastId = 0;
  bool sawKernelWithCycles = false;
  bool sawWrite = false;
  bool sawRead = false;
  for (const CommandRecord& c : t.commands) {
    // Ids are unique and ascending in emission order.
    EXPECT_GT(c.id, lastId);
    lastId = c.id;
    // The CL profiling invariant: queued <= submit <= start <= end.
    EXPECT_LE(c.queuedNs, c.submitNs);
    EXPECT_LE(c.submitNs, c.startNs);
    EXPECT_LE(c.startNs, c.endNs);
    EXPECT_LT(c.engine, trace::kEngineCount);
    // Dependencies always point at earlier commands.
    for (const std::uint64_t dep : c.deps) {
      EXPECT_LT(dep, c.id);
    }
    EXPECT_LT(c.name, t.strings.size());
    if (c.kind == CommandKind::Kernel) {
      EXPECT_EQ(c.engine, 0);
      sawKernelWithCycles = sawKernelWithCycles || c.cycles > 0;
    }
    if (c.kind == CommandKind::Write) {
      EXPECT_EQ(c.engine, 1);
      sawWrite = true;
    }
    if (c.kind == CommandKind::Read) {
      EXPECT_EQ(c.engine, 2);
      sawRead = true;
    }
  }
  EXPECT_TRUE(sawKernelWithCycles);
  EXPECT_TRUE(sawWrite);
  EXPECT_TRUE(sawRead);

  // Host spans from the skeletons and the lazy transfer layer.
  auto hasSpan = [&](HostKind kind, const char* name) {
    return std::any_of(t.hostSpans.begin(), t.hostSpans.end(),
                       [&](const trace::HostSpanRecord& s) {
                         return s.kind == kind && t.str(s.name) == name;
                       });
  };
  EXPECT_TRUE(hasSpan(HostKind::Skeleton, "Map"));
  EXPECT_TRUE(hasSpan(HostKind::Skeleton, "Zip"));
  EXPECT_TRUE(hasSpan(HostKind::Skeleton, "Reduce"));
  EXPECT_TRUE(hasSpan(HostKind::Transfer, "vector.upload"));
  for (const trace::HostSpanRecord& s : t.hostSpans) {
    EXPECT_LE(s.startNs, s.endNs);
  }

  // The engine-implied byte counters fired, cumulatively.
  std::uint64_t lastH2d = 0;
  bool sawH2d = false;
  for (const trace::CounterRecord& c : t.counters) {
    if (t.str(c.name) == "h2d_bytes") {
      EXPECT_GE(c.value, lastH2d);
      lastH2d = c.value;
      sawH2d = true;
    }
  }
  EXPECT_TRUE(sawH2d);
}

TEST(Recorder, BinaryRoundTripIsLossless) {
  const auto run =
      trace_test::runWorkload(/*traced=*/true, /*serialized=*/false);
  const std::vector<std::uint8_t> bytes = trace::serialize(run.trace);
  const Trace back = trace::deserialize(bytes);
  // Re-serializing the decoded trace must reproduce the exact bytes,
  // and every consumer-visible view must agree.
  EXPECT_EQ(trace::serialize(back), bytes);
  EXPECT_EQ(trace::chromeJson(back), trace::chromeJson(run.trace));
  EXPECT_EQ(back.commands.size(), run.trace.commands.size());
  EXPECT_EQ(back.hostSpans.size(), run.trace.hostSpans.size());
  EXPECT_EQ(back.counters.size(), run.trace.counters.size());
  EXPECT_EQ(back.strings, run.trace.strings);
}

/// A trace header followed by the given table counts, each table empty
/// except for the count itself (so the last count claims records the
/// stream does not hold).
std::vector<std::uint8_t> traceWithCounts(
    const std::vector<std::uint64_t>& counts) {
  common::ByteWriter w;
  w.writeBytes("SKTR", 4);
  w.write<std::uint32_t>(trace::kBinaryVersion);
  for (const std::uint64_t n : counts) {
    w.write<std::uint64_t>(n);
  }
  return w.takeBytes();
}

// Hostile table counts from a file: each is a typed error, never a
// reserve() of that many records.
TEST(TraceDeserialize, HugeStringCountIsATypedError) {
  EXPECT_THROW(trace::deserialize(traceWithCounts({1ULL << 62})),
               common::DeserializeError);
}

TEST(TraceDeserialize, HugeCommandCountIsATypedError) {
  EXPECT_THROW(trace::deserialize(traceWithCounts({0, 0, 1ULL << 40})),
               common::DeserializeError);
}

TEST(TraceDeserialize, HugeHostSpanCountIsATypedError) {
  EXPECT_THROW(trace::deserialize(traceWithCounts({0, 0, 0, 1ULL << 62})),
               common::DeserializeError);
}

TEST(TraceDeserialize, HugeCounterCountIsATypedError) {
  EXPECT_THROW(
      trace::deserialize(traceWithCounts({0, 0, 0, 0, 1ULL << 62})),
      common::DeserializeError);
}

TEST(Recorder, WriteTraceFileDispatchesOnExtension) {
  const auto run =
      trace_test::runWorkload(/*traced=*/true, /*serialized=*/false);

  const std::string binPath = tempPath("dispatch.sktrace");
  trace::writeTraceFile(binPath, run.trace);
  const Trace fromDisk = trace::readTraceFile(binPath);
  EXPECT_EQ(trace::serialize(fromDisk), trace::serialize(run.trace));

  const std::string jsonPath = tempPath("dispatch.json");
  trace::writeTraceFile(jsonPath, run.trace);
  const auto jsonBytes = common::readFile(jsonPath);
  const std::string json(jsonBytes.begin(), jsonBytes.end());
  EXPECT_EQ(json, trace::chromeJson(run.trace));
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"h2d dma\""), std::string::npos);

  std::filesystem::remove(binPath);
  std::filesystem::remove(jsonPath);
}

TEST(Recorder, StartClearsPreviousTrace) {
  trace_test::runWorkload(/*traced=*/true, /*serialized=*/false);
  // stop() already drained that run; a fresh start()+stop() with no
  // activity in between must be empty, not a replay.
  Recorder::instance().start();
  EXPECT_TRUE(Recorder::instance().stop().empty());
}

} // namespace
