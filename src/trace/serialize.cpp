#include "trace/serialize.h"

#include "common/byte_stream.h"
#include "trace/chrome_export.h"

namespace trace {

namespace {

constexpr char kMagic[4] = {'S', 'K', 'T', 'R'};

// Fewest bytes one record of each table takes in the stream (its fixed
// fields plus the u64 length of every string or vector in it): the bound
// deserialize() checks a table's count against before reserving.
constexpr std::size_t kStringBytes = 8;
constexpr std::size_t kDeviceBytes = 4 + 8 + 4 + 3 * 8;
constexpr std::size_t kCommandBytes = 8 + 4 + 1 + 1 + 4 + 6 * 8 + 8;
constexpr std::size_t kHostSpanBytes = 4 + 1 + 4 + 4 + 4 * 8;
constexpr std::size_t kCounterBytes = 4 + 4 + 8 + 8;

/// Reads an engine index or a record kind, which must be below `count`.
std::uint8_t readBelow(common::ByteReader& r, std::uint8_t count) {
  const auto value = r.read<std::uint8_t>();
  if (value >= count) {
    throw common::DeserializeError("unknown trace engine or kind " +
                                   std::to_string(value));
  }
  return value;
}

/// A record names an interned string and ends no earlier than it starts.
void checkRecord(const Trace& trace, std::uint32_t name,
                 std::uint64_t startNs, std::uint64_t endNs) {
  if (name >= trace.strings.size() || endNs < startNs) {
    throw common::DeserializeError(
        "trace record names no string or ends before it starts");
  }
}

bool hasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

std::vector<std::uint8_t> serialize(const Trace& trace) {
  common::ByteWriter w;
  w.writeBytes(kMagic, sizeof(kMagic));
  w.write<std::uint32_t>(kBinaryVersion);

  w.write<std::uint64_t>(trace.strings.size());
  for (const std::string& s : trace.strings) {
    w.writeString(s);
  }
  w.write<std::uint64_t>(trace.devices.size());
  for (const DeviceInfo& d : trace.devices) {
    w.write<std::uint32_t>(d.index);
    w.writeString(d.name);
    w.write<std::uint32_t>(d.node);
    w.write<double>(d.idlePowerW);
    w.write<double>(d.busyPowerW);
    w.write<double>(d.transferNjPerByte);
  }
  w.write<std::uint64_t>(trace.commands.size());
  for (const CommandRecord& c : trace.commands) {
    w.write<std::uint64_t>(c.id);
    w.write<std::uint32_t>(c.device);
    w.write<std::uint8_t>(c.engine);
    w.write<std::uint8_t>(std::uint8_t(c.kind));
    w.write<std::uint32_t>(c.name);
    w.write<std::uint64_t>(c.queuedNs);
    w.write<std::uint64_t>(c.submitNs);
    w.write<std::uint64_t>(c.startNs);
    w.write<std::uint64_t>(c.endNs);
    w.write<std::uint64_t>(c.bytes);
    w.write<std::uint64_t>(c.cycles);
    w.writeVector(c.deps);
  }
  w.write<std::uint64_t>(trace.hostSpans.size());
  for (const HostSpanRecord& h : trace.hostSpans) {
    w.write<std::uint32_t>(h.name);
    w.write<std::uint8_t>(std::uint8_t(h.kind));
    w.write<std::uint32_t>(h.device);
    w.write<std::uint32_t>(h.lane);
    w.write<std::uint64_t>(h.startNs);
    w.write<std::uint64_t>(h.endNs);
    w.write<std::uint64_t>(h.value);
    w.write<std::uint64_t>(h.value2);
  }
  w.write<std::uint64_t>(trace.counters.size());
  for (const CounterRecord& c : trace.counters) {
    w.write<std::uint32_t>(c.name);
    w.write<std::uint32_t>(c.device);
    w.write<std::uint64_t>(c.timeNs);
    w.write<std::uint64_t>(c.value);
  }
  return w.takeBytes();
}

Trace deserialize(const std::vector<std::uint8_t>& bytes) {
  common::ByteReader r(bytes);
  char magic[4];
  r.readBytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw common::DeserializeError("not a SkelCL trace (bad magic)");
  }
  const auto version = r.read<std::uint32_t>();
  if (version != kBinaryVersion) {
    throw common::DeserializeError("unsupported trace version " +
                                   std::to_string(version));
  }

  Trace trace;
  const std::size_t nStrings = r.readCount(kStringBytes);
  trace.strings.reserve(nStrings);
  for (std::size_t i = 0; i < nStrings; ++i) {
    trace.strings.push_back(r.readString());
  }
  const std::size_t nDevices = r.readCount(kDeviceBytes);
  for (std::size_t i = 0; i < nDevices; ++i) {
    DeviceInfo d;
    d.index = r.read<std::uint32_t>();
    d.name = r.readString();
    d.node = r.read<std::uint32_t>();
    d.idlePowerW = r.read<double>();
    d.busyPowerW = r.read<double>();
    d.transferNjPerByte = r.read<double>();
    trace.devices.push_back(std::move(d));
  }
  const std::size_t nCommands = r.readCount(kCommandBytes);
  trace.commands.reserve(nCommands);
  for (std::size_t i = 0; i < nCommands; ++i) {
    CommandRecord c;
    c.id = r.read<std::uint64_t>();
    c.device = r.read<std::uint32_t>();
    c.engine = readBelow(r, kEngineCount);
    c.kind = CommandKind(readBelow(r, kCommandKindCount));
    c.name = r.read<std::uint32_t>();
    c.queuedNs = r.read<std::uint64_t>();
    c.submitNs = r.read<std::uint64_t>();
    c.startNs = r.read<std::uint64_t>();
    c.endNs = r.read<std::uint64_t>();
    c.bytes = r.read<std::uint64_t>();
    c.cycles = r.read<std::uint64_t>();
    c.deps = r.readVector<std::uint64_t>();
    checkRecord(trace, c.name, c.startNs, c.endNs);
    trace.commands.push_back(std::move(c));
  }
  const std::size_t nHost = r.readCount(kHostSpanBytes);
  trace.hostSpans.reserve(nHost);
  for (std::size_t i = 0; i < nHost; ++i) {
    HostSpanRecord h;
    h.name = r.read<std::uint32_t>();
    h.kind = HostKind(readBelow(r, kHostKindCount));
    h.device = r.read<std::uint32_t>();
    h.lane = r.read<std::uint32_t>();
    h.startNs = r.read<std::uint64_t>();
    h.endNs = r.read<std::uint64_t>();
    h.value = r.read<std::uint64_t>();
    h.value2 = r.read<std::uint64_t>();
    checkRecord(trace, h.name, h.startNs, h.endNs);
    trace.hostSpans.push_back(h);
  }
  const std::size_t nCounters = r.readCount(kCounterBytes);
  trace.counters.reserve(nCounters);
  for (std::size_t i = 0; i < nCounters; ++i) {
    CounterRecord c;
    c.name = r.read<std::uint32_t>();
    c.device = r.read<std::uint32_t>();
    c.timeNs = r.read<std::uint64_t>();
    c.value = r.read<std::uint64_t>();
    checkRecord(trace, c.name, c.timeNs, c.timeNs);
    trace.counters.push_back(c);
  }
  return trace;
}

void writeTraceFile(const std::string& path, const Trace& trace) {
  if (hasSuffix(path, ".json")) {
    const std::string json = chromeJson(trace);
    common::writeFile(path,
                      std::vector<std::uint8_t>(json.begin(), json.end()));
    return;
  }
  common::writeFile(path, serialize(trace));
}

Trace readTraceFile(const std::string& path) {
  return deserialize(common::readFile(path));
}

} // namespace trace
