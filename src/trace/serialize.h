// Compact binary trace format ("SKTR"), built on common/byte_stream.
//
// The binary form is the analyzer's native input (skeltrace) and the
// determinism-test medium: serializing the same Trace always yields the
// same bytes. writeTraceFile dispatches on the file extension — a path
// ending in ".json" gets the Chrome trace-event export, everything else
// the binary format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace trace {

/// v2: HostSpanRecord gained `lane` (host row for scheduler spans).
/// v3: DeviceInfo gained `node` and the power envelope (idle/busy watts,
///     transfer nJ/byte) behind the cluster energy analysis.
/// v4: counters hold only halo and intermediate bytes and tenant
///     accounting; byte and cycle totals come from the commands, cache
///     hits and misses from the CacheHit and Build host spans.
/// v5: HostSpanRecord gained `value2`, so a layout Decision carries both
///     forecasts at full width.
inline constexpr std::uint32_t kBinaryVersion = 5;

std::vector<std::uint8_t> serialize(const Trace& trace);

/// Throws common::DeserializeError on malformed input (bad magic,
/// unknown version, truncated stream, unknown engine or kind, a name
/// outside the string table, a span ending before it starts).
Trace deserialize(const std::vector<std::uint8_t>& bytes);

/// Extension-dispatched writer: ".json" -> Chrome trace JSON, anything
/// else -> binary. Throws common::IoError on write failure.
void writeTraceFile(const std::string& path, const Trace& trace);

/// Reads a binary trace file (the skeltrace input format).
Trace readTraceFile(const std::string& path);

} // namespace trace
