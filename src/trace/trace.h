// Virtual-time trace data model.
//
// A Trace is the structured record of one SkelCL run on the simulated
// machine: per-command *engine spans* (where every enqueued command sat
// on its device's compute/H2D/D2H timeline, in virtual nanoseconds, plus
// the dependency edges that constrained it), *host spans* (what the
// runtime was doing: which skeleton, kernel build vs cache hit, lazy
// transfer, redistribution, and the decisions it took along the way),
// and monotone *counters* for the facts neither of those holds (halo
// and intermediate bytes, tenant accounting).
//
// The model is deliberately plain data: the Recorder (recorder.h)
// produces it, serialize.h round-trips it through a compact binary
// format, chrome_export.h renders it as Chrome trace-event JSON, and
// analysis.h computes utilization/overlap reports from it. Everything
// is expressed in plain integers (device index, engine index, string-
// table ids) so this layer depends only on `common` — the ocl layer
// links *against* it to emit records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace trace {

/// Engine indices mirror ocl::Engine (compute / H2D DMA / D2H DMA).
inline constexpr std::uint8_t kEngineCount = 3;

const char* engineLabel(std::uint8_t engine) noexcept;

/// Device index meaning "no particular device" (host-global records).
inline constexpr std::uint32_t kNoDevice = 0xffffffffu;

/// What kind of command an engine span represents.
enum class CommandKind : std::uint8_t {
  Kernel = 0,       // ND-range launch on the compute engine
  Write = 1,        // host->device upload (H2D DMA)
  Read = 2,         // device->host download (D2H DMA)
  CopyOnDevice = 3, // same-device buffer copy (compute engine)
  CopyPeer = 4,     // cross-device copy leg (src D2H or dst H2D)
};
inline constexpr std::uint8_t kCommandKindCount = 5;

const char* commandKindLabel(CommandKind kind) noexcept;

/// What a host-side span represents.
enum class HostKind : std::uint8_t {
  Skeleton = 0,     // one skeleton invocation (Map, Zip, Reduce, ...)
  Build = 1,        // kernel source compiled (cache miss)
  CacheHit = 2,     // kernel loaded from the binary cache
  Transfer = 3,     // lazy Vector upload/download batch
  Redistribute = 4, // distribution change staged through the host
  Combine = 5,      // copy->block merge with a user combine function
  Scheduler = 6,    // async task-graph job: registration .. dispatch end
  TenantJob = 7,    // job service: one tenant job, dispatch .. completion
  Decision = 8,     // a runtime choice and its reason (zero-length)
};
inline constexpr std::uint8_t kHostKindCount = 9;

const char* hostKindLabel(HostKind kind) noexcept;

/// One command's occupancy of a device engine, mirroring
/// CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,END}. `deps` lists the ids
/// of the events the command waited on (its incoming DAG edges; for
/// in-order queues this includes the implicit previous-command edge).
struct CommandRecord {
  std::uint64_t id = 0;
  std::uint32_t device = 0;
  std::uint8_t engine = 0;
  CommandKind kind = CommandKind::Kernel;
  std::uint32_t name = 0; // string-table index (kernel or command label)
  std::uint64_t queuedNs = 0;
  std::uint64_t submitNs = 0;
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::uint64_t bytes = 0;  // payload (transfers) or global traffic (kernels)
  std::uint64_t cycles = 0; // simulated kernel cycles (kernels only)
  std::vector<std::uint64_t> deps;
};

/// One host-side runtime span. `value` depends on the kind: the input's
/// element count for Skeleton (nonzeros for SparseGather), bytes for
/// Transfer and Combine, source length for Build and CacheHit,
/// queue-wait nanoseconds for Scheduler and TenantJob (whose name is the
/// tenant), the multi-device layout's forecast finish for a
/// `stencil.layout` or `sparse.layout` Decision (in ns from the decision;
/// UINT64_MAX, "never", when that layout cannot run the call), otherwise
/// 0. `value2` is such a Decision's single-device forecast, otherwise 0.
/// A Decision is zero-length, at the virtual time of the choice, and
/// named "<decision>: <reason>".
/// `lane` is the host row the span renders on:
/// 0 is the runtime thread; Scheduler spans use one lane per
/// concurrently outstanding job and TenantJob spans their job-service
/// window slot, so overlapping jobs don't collide.
struct HostSpanRecord {
  std::uint32_t name = 0; // string-table index
  HostKind kind = HostKind::Skeleton;
  std::uint32_t device = kNoDevice;
  std::uint32_t lane = 0;
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::uint64_t value = 0;
  std::uint64_t value2 = 0;
};

/// A cumulative counter sample ("halo_bytes" on device 2 reached V at
/// time T). Values are monotone within one trace. Counters hold only
/// facts no other record carries; byte, cycle, inter-node and
/// concurrency totals are derived from the commands and host spans.
struct CounterRecord {
  std::uint32_t name = 0; // string-table index
  std::uint32_t device = kNoDevice;
  std::uint64_t timeNs = 0;
  std::uint64_t value = 0;
};

/// Identity of one simulated device: pid labeling in exports, plus the
/// node placement and power envelope the energy analysis runs on
/// (joules = idle x span + (busy - idle) x compute busy + nJ/byte x
/// bytes moved; 1 W = 1 nJ/ns).
struct DeviceInfo {
  std::uint32_t index = 0;
  std::string name;
  std::uint32_t node = 0;         // cluster node hosting this device
  double idlePowerW = 0.0;        // board power while idle
  double busyPowerW = 0.0;        // board power with compute busy
  double transferNjPerByte = 0.0; // DMA energy per byte moved
};

struct Trace {
  std::vector<std::string> strings; // interned names; index 0 is ""
  std::vector<DeviceInfo> devices;
  std::vector<CommandRecord> commands;
  std::vector<HostSpanRecord> hostSpans;
  std::vector<CounterRecord> counters;

  const std::string& str(std::uint32_t index) const;
  bool empty() const noexcept {
    return commands.empty() && hostSpans.empty() && counters.empty();
  }
};

} // namespace trace
