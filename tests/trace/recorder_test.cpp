// Recorder contract: nothing recorded while disabled, well-ordered
// records from a real workload, and lossless binary / Chrome-JSON
// round-trips.
#include "trace_test_util.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>

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
  Recorder::instance().bumpCounter("ignored", trace::kNoDevice, 0, 1);
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
}

// Bytes, cycles and inter-node traffic are recorded once, on the
// commands, and cache hits and misses on host spans: no counter restates
// them.
TEST(Recorder, CommandsCarryNoCounters) {
  const auto run =
      trace_test::runWorkload(/*traced=*/true, /*serialized=*/false);
  const Trace& t = run.trace;
  ASSERT_FALSE(t.commands.empty());
  EXPECT_LT(t.counters.size(), t.commands.size());
  for (const trace::CounterRecord& c : t.counters) {
    for (const char* derived :
         {"h2d_bytes", "d2h_bytes", "kernel_cycles", "internode_bytes",
          "sched_concurrent_jobs", "sched_queue_wait_ns", "cache_hits",
          "cache_misses"}) {
      EXPECT_NE(t.str(c.name), derived);
    }
  }
}

/// (ts, value) of one Chrome "C" event line.
using Sample = std::pair<std::string, std::uint64_t>;

/// Parses the "C" events chromeJson() wrote, keyed by (name, pid).
std::map<std::pair<std::string, int>, std::vector<Sample>> chromeCounters(
    const std::string& json) {
  std::map<std::pair<std::string, int>, std::vector<Sample>> tracks;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"ph\":\"C\",", 0) != 0) {
      continue;
    }
    auto field = [&](const std::string& key) {
      const std::string tag = "\"" + key + "\":";
      const std::size_t at = line.find(tag) + tag.size();
      return line.substr(at, line.find_first_of(",}", at) - at);
    };
    const std::string name = field("name");
    tracks[{name.substr(1, name.size() - 2), std::stoi(field("pid"))}]
        .emplace_back(field("ts"), std::stoull(field("value")));
  }
  return tracks;
}

// The Chrome export draws each device's h2d_bytes / d2h_bytes /
// kernel_cycles track from the commands: one sample at every command's
// end, carrying the running total of its direction on its device.
TEST(Recorder, ChromeExportDrawsCommandTracks) {
  const auto run =
      trace_test::runWorkload(/*traced=*/true, /*serialized=*/false);
  const Trace& t = run.trace;
  std::map<std::pair<std::string, int>, std::vector<Sample>> expected;
  std::map<std::pair<std::string, int>, std::uint64_t> totals;
  for (const CommandRecord& c : t.commands) {
    const char* name = c.engine == 1   ? "h2d_bytes"
                       : c.engine == 2 ? "d2h_bytes"
                       : c.kind == CommandKind::Kernel ? "kernel_cycles"
                                                       : nullptr;
    if (name == nullptr) {
      continue;
    }
    const std::pair<std::string, int> key{name, int(c.device) + 1};
    std::uint64_t& total = totals[key];
    total += c.engine == 0 ? c.cycles : c.bytes;
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%llu.%03u",
                  (unsigned long long)(c.endNs / 1000),
                  unsigned(c.endNs % 1000));
    expected[key].emplace_back(ts, total);
  }
  for (const char* name : {"h2d_bytes", "d2h_bytes", "kernel_cycles"}) {
    ASSERT_TRUE(expected.count({name, 1})) << name;
  }

  auto drawn = chromeCounters(trace::chromeJson(t));
  for (const auto& [key, samples] : expected) {
    EXPECT_EQ(drawn[key], samples) << key.first << " pid " << key.second;
  }
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

// A v3 trace may carry cache and byte counters that v4 derives from
// spans and commands: it is rejected, never half-read.
TEST(TraceDeserialize, OlderVersionIsATypedError) {
  std::vector<std::uint8_t> bytes = traceWithCounts({0, 0, 0, 0, 0});
  ASSERT_NO_THROW(trace::deserialize(bytes));
  bytes[4] = std::uint8_t(trace::kBinaryVersion - 1);
  EXPECT_THROW(trace::deserialize(bytes), common::DeserializeError);
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

/// A one-command, one-host-span trace that round-trips; the tests below
/// break one field of it at a time.
Trace wellFormedTrace() {
  Trace t;
  t.strings = {"", "k"};
  CommandRecord c;
  c.name = 1;
  c.startNs = 5;
  c.endNs = 9;
  t.commands.push_back(c);
  t.hostSpans.push_back({1, HostKind::Decision, trace::kNoDevice, 0, 7, 7});
  return t;
}

void expectRejected(const Trace& t) {
  EXPECT_THROW(trace::deserialize(trace::serialize(t)),
               common::DeserializeError);
}

// A layout Decision carries both forecasts at full width: "never" and a
// forecast past 2^32 ns (~4.3 s) survive the binary round trip.
TEST(TraceDeserialize, LayoutForecastsRoundTripAtFullWidth) {
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kLong = 5'000'000'000ULL;
  trace::Recorder::instance().start();
  trace::recordDecision("stencil.layout: single-device", kNever, kLong);
  const Trace back = trace::deserialize(
      trace::serialize(trace::Recorder::instance().stop()));
  ASSERT_EQ(back.hostSpans.size(), 1u);
  EXPECT_EQ(back.hostSpans[0].kind, HostKind::Decision);
  EXPECT_EQ(back.hostSpans[0].value, kNever);
  EXPECT_EQ(back.hostSpans[0].value2, kLong);
}

TEST(TraceDeserialize, WellFormedTraceRoundTrips) {
  const Trace t = wellFormedTrace();
  EXPECT_EQ(trace::serialize(trace::deserialize(trace::serialize(t))),
            trace::serialize(t));
}

TEST(TraceDeserialize, UnknownEngineIsATypedError) {
  Trace t = wellFormedTrace();
  t.commands[0].engine = trace::kEngineCount;
  expectRejected(t);
}

TEST(TraceDeserialize, UnknownCommandKindIsATypedError) {
  Trace t = wellFormedTrace();
  t.commands[0].kind = CommandKind(trace::kCommandKindCount);
  expectRejected(t);
}

TEST(TraceDeserialize, UnknownHostKindIsATypedError) {
  Trace t = wellFormedTrace();
  t.hostSpans[0].kind = HostKind(trace::kHostKindCount);
  expectRejected(t);
}

TEST(TraceDeserialize, SpanEndingBeforeItStartsIsATypedError) {
  Trace command = wellFormedTrace();
  command.commands[0].endNs = 4;
  expectRejected(command);
  Trace host = wellFormedTrace();
  host.hostSpans[0].startNs = 8;
  expectRejected(host);
}

TEST(TraceDeserialize, NameOutsideTheStringTableIsATypedError) {
  Trace t = wellFormedTrace();
  t.hostSpans[0].name = 2;
  expectRejected(t);
}

// The one failure the trace cannot carry: terminate() prints one stderr
// line and returns normally.
TEST(Recorder, UnwritableTracePathIsOneStderrLine) {
  const std::string blocker = tempPath("not-a-directory");
  common::writeFile(blocker, {1});
  trace_test::useTempCacheDir();
  ::setenv("SKELCL_TRACE", (blocker + "/run.sktrace").c_str(), 1);
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
  skelcl::init(skelcl::DeviceSelection::nGPUs(1));
  ::unsetenv("SKELCL_TRACE");

  testing::internal::CaptureStderr();
  EXPECT_NO_THROW(skelcl::terminate());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_NE(err.find("cannot write trace to " + blocker), std::string::npos)
      << err;
  EXPECT_FALSE(Recorder::enabled());
  std::filesystem::remove(blocker);
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
