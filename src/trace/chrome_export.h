// Chrome trace-event JSON export.
//
// Row mapping: each simulated device becomes one *process* (pid =
// device index + 1) with three named *threads* — one per engine
// (compute / h2d dma / d2h dma) — so transfer/compute overlap is
// directly visible as horizontally overlapping slices in
// chrome://tracing or Perfetto. Host-side runtime spans (skeletons,
// builds, transfers) live in pid 0 ("SkelCL host"). Counters render as
// Chrome "C" counter tracks per device, beside the h2d_bytes /
// d2h_bytes / kernel_cycles tracks drawn from the commands themselves.
#pragma once

#include <string>

#include "trace/trace.h"

namespace trace {

/// Renders `trace` as a Chrome trace-event JSON object
/// ({"traceEvents": [...]}). Deterministic: the same trace always
/// produces the same string.
std::string chromeJson(const Trace& trace);

} // namespace trace
