#include "trace/chrome_export.h"

#include <cinttypes>
#include <cstdio>
#include <map>

namespace trace {

namespace {

/// ts/dur are microseconds in the trace-event format; virtual time is
/// nanoseconds. Prints with fixed 3 decimals so no precision is lost
/// and output is deterministic.
std::string micros(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                unsigned(ns % 1000));
  return buf;
}

std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void appendMeta(std::string& out, const char* name, std::uint32_t pid,
                int tid, const std::string& value) {
  out += "{\"ph\":\"M\",\"name\":\"";
  out += name;
  out += "\",\"pid\":" + std::to_string(pid);
  if (tid >= 0) {
    out += ",\"tid\":" + std::to_string(tid);
  }
  out += ",\"args\":{\"name\":\"" + escaped(value) + "\"}},\n";
}

void appendCounter(std::string& out, const std::string& name,
                   std::uint32_t device, std::uint64_t timeNs,
                   std::uint64_t value) {
  out += "{\"ph\":\"C\",\"pid\":" +
         std::to_string(device == kNoDevice ? 0 : device + 1) +
         ",\"ts\":" + micros(timeNs) + ",\"name\":\"" + escaped(name) +
         "\",\"args\":{\"value\":" + std::to_string(value) + "}},\n";
}

/// The per-device counter track a command advances: H2D and D2H engine
/// commands add their bytes, kernels their cycles (the totals analyze()
/// sums). Null for commands that advance none.
const char* commandTrack(const CommandRecord& c) {
  if (c.engine == 1) {
    return "h2d_bytes";
  }
  if (c.engine == 2) {
    return "d2h_bytes";
  }
  return c.kind == CommandKind::Kernel ? "kernel_cycles" : nullptr;
}

} // namespace

std::string chromeJson(const Trace& trace) {
  std::string out = "{\"traceEvents\":[\n";

  // Row naming: pid 0 = host, pid d+1 = device d with one tid per engine.
  // Host tid = HostSpanRecord::lane: 0 is the runtime thread, lanes >= 1
  // hold the overlapping per-job spans of the async scheduler and of the
  // job service's window.
  appendMeta(out, "process_name", 0, -1, "SkelCL host");
  std::uint32_t maxLane = 0;
  for (const HostSpanRecord& h : trace.hostSpans) {
    maxLane = h.lane > maxLane ? h.lane : maxLane;
  }
  appendMeta(out, "thread_name", 0, 0, "runtime");
  for (std::uint32_t lane = 1; lane <= maxLane; ++lane) {
    appendMeta(out, "thread_name", 0, int(lane),
               "async job slot " + std::to_string(lane));
  }
  bool multiNode = false;
  for (const DeviceInfo& d : trace.devices) {
    multiNode = multiNode || d.node != 0;
  }
  for (const DeviceInfo& d : trace.devices) {
    const std::string nodeTag =
        multiNode ? "Node " + std::to_string(d.node) + " / " : "";
    appendMeta(out, "process_name", d.index + 1, -1,
               nodeTag + "Device " + std::to_string(d.index) + ": " + d.name);
    for (std::uint8_t e = 0; e < kEngineCount; ++e) {
      appendMeta(out, "thread_name", d.index + 1, e, engineLabel(e));
    }
  }

  std::map<std::pair<std::string, std::uint32_t>, std::uint64_t> tracks;
  for (const CommandRecord& c : trace.commands) {
    out += "{\"ph\":\"X\",\"pid\":" + std::to_string(c.device + 1) +
           ",\"tid\":" + std::to_string(c.engine) + ",\"ts\":" +
           micros(c.startNs) + ",\"dur\":" + micros(c.endNs - c.startNs) +
           ",\"name\":\"" + escaped(trace.str(c.name)) + "\",\"cat\":\"" +
           commandKindLabel(c.kind) + "\",\"args\":{\"id\":" +
           std::to_string(c.id) + ",\"queued_ns\":" +
           std::to_string(c.queuedNs) + ",\"submit_ns\":" +
           std::to_string(c.submitNs) + ",\"bytes\":" +
           std::to_string(c.bytes) + ",\"cycles\":" +
           std::to_string(c.cycles) + ",\"deps\":[";
    for (std::size_t i = 0; i < c.deps.size(); ++i) {
      if (i != 0) {
        out += ',';
      }
      out += std::to_string(c.deps[i]);
    }
    out += "]}},\n";
    if (const char* track = commandTrack(c)) {
      std::uint64_t& total = tracks[{track, c.device}];
      total += c.engine == 1 || c.engine == 2 ? c.bytes : c.cycles;
      appendCounter(out, track, c.device, c.endNs, total);
    }
  }

  for (const HostSpanRecord& h : trace.hostSpans) {
    out += "{\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(h.lane) +
           ",\"ts\":" + micros(h.startNs) +
           ",\"dur\":" + micros(h.endNs - h.startNs) + ",\"name\":\"" +
           escaped(trace.str(h.name)) + "\",\"cat\":\"" +
           hostKindLabel(h.kind) + "\",\"args\":{\"device\":" +
           (h.device == kNoDevice ? std::string("-1")
                                  : std::to_string(h.device)) +
           ",\"value\":" + std::to_string(h.value) +
           ",\"value2\":" + std::to_string(h.value2) + "}},\n";
  }

  for (const CounterRecord& c : trace.counters) {
    appendCounter(out, trace.str(c.name), c.device, c.timeNs, c.value);
  }

  // Trailing comma removal keeps the emitters above uniform.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

} // namespace trace
