// Trace analysis: the numbers behind `skeltrace` and the perf-smoke
// overlap checks.
//
// Definitions (all in virtual nanoseconds over one trace):
//  * device span     — first command start .. last command end on that
//                      device; busy% is per-engine busy time over it.
//  * overlap ratio   — |DMA busy ∩ compute busy| / |DMA busy| per
//                      device, aggregated over devices as a busy-time-
//                      weighted mean. Under in-order (serialized)
//                      queues every command waits for the whole device,
//                      so the ratio is exactly 0; out-of-order queues
//                      make it the fraction of transfer time actually
//                      hidden behind kernels.
//  * critical path   — longest dependency chain through the command
//                      DAG, where each command's predecessors are its
//                      recorded event dependencies plus the implicit
//                      FIFO predecessor on its engine. An estimate of
//                      the best possible makespan for this command set.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace trace {

struct EngineReport {
  std::uint64_t busyNs = 0;
  std::uint64_t commands = 0;
  double busyFraction = 0.0; // of the device span
};

struct DeviceReport {
  std::uint32_t device = 0;
  std::string name;
  std::uint32_t node = 0; // cluster node (from DeviceInfo; 0 if unknown)
  EngineReport engines[kEngineCount];
  std::uint64_t spanNs = 0;    // first start .. last end on this device
  std::uint64_t dmaBusyNs = 0; // union of both DMA engines
  std::uint64_t overlapNs = 0; // DMA busy while compute busy
  double overlapRatio = 0.0;   // overlapNs / dmaBusyNs (0 when no DMA)
  /// This device's share of the whole trace's compute busy time. On a
  /// perfectly balanced D-device run every share is 1/D; skew shows
  /// which devices carry the load.
  double loadShare = 0.0;
  /// DMA payload bytes this device moved (H2D + D2H engine commands).
  std::uint64_t dmaBytes = 0;
  /// VM cycles this device's kernels retired.
  std::uint64_t kernelCycles = 0;
  /// Energy over the whole-trace makespan: the device idles at
  /// DeviceInfo::idlePowerW for the full span, adds (busy - idle) watts
  /// while its compute engine is busy, and pays transferNjPerByte per
  /// DMA byte. Zero when the trace carries no power data (pre-v3 traces
  /// or synthetic DeviceInfo-less traces).
  double energyJ = 0.0;
  /// kernelCycles / energyJ — cycles of useful work per joule.
  double perfPerWatt = 0.0;
};

/// Rollup of one cluster node's devices.
struct NodeReport {
  std::uint32_t node = 0;
  std::uint32_t devices = 0;
  std::uint64_t computeBusyNs = 0;
  std::uint64_t kernelCycles = 0;
  double energyJ = 0.0;
  double perfPerWatt = 0.0; // kernelCycles / energyJ
};

struct KernelReport {
  std::string name;
  std::uint64_t launches = 0;
  std::uint64_t totalNs = 0;
  std::uint64_t cycles = 0;
};

/// Per-tenant job-service activity, from HostKind::TenantJob spans (one
/// per completed job: dispatch..completion, value = queue wait, lane =
/// the job's window slot) and the
/// "tenant.<name>.cycles" / "tenant.<name>.bytes" counters.
struct TenantReport {
  std::string name;
  std::uint64_t jobs = 0;
  /// Busy time: the union of the tenant's dispatch..completion spans, so
  /// jobs that overlap in the service's window count once.
  std::uint64_t execNs = 0;
  std::uint64_t queueWaitNs = 0; // summed submission->dispatch waits
  std::uint64_t deviceCycles = 0;
  std::uint64_t bytesMoved = 0;
};

struct Report {
  std::vector<DeviceReport> devices;
  std::vector<NodeReport> nodes;     // one row per cluster node
  std::vector<KernelReport> kernels; // sorted by totalNs, descending
  std::vector<TenantReport> tenants; // sorted by name; empty: no service
  std::uint64_t spanNs = 0;          // whole-trace makespan
  std::uint64_t criticalPathNs = 0;
  double overlapRatio = 0.0; // aggregate (DMA-busy-weighted)
  /// Per-device load imbalance: max(compute busy) / mean(compute busy)
  /// - 1, over devices that ran at least one command. 0 = perfectly
  /// balanced; 1 = the busiest device worked twice the average. The
  /// number weighted block distributions exist to drive toward 0.
  double computeImbalance = 0.0;
  /// Summed from the commands: payload bytes of every H2D / D2H engine
  /// command, and cycles of every kernel command.
  std::uint64_t h2dBytes = 0;
  std::uint64_t d2hBytes = 0;
  std::uint64_t kernelCycles = 0;
  std::uint64_t kernelLaunches = 0; // kernel commands in the trace
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t skeletonSpans = 0;
  /// HostKind::Decision records counted by name ("<decision>: <reason>").
  std::map<std::string, std::uint64_t> decisions;
  /// Bytes of intermediate vectors materialized between skeleton stages
  /// (from the "intermediate_bytes" counter). Kernel fusion exists to
  /// drive this — and the launch count — down.
  std::uint64_t intermediateBytes = 0;
  /// Bytes shipped between devices as stencil halo rows (from the
  /// "halo_bytes" counter). Scales with the cut surface, not the
  /// volume — the quantity multi-device stencils try to overlap away.
  std::uint64_t haloBytes = 0;
  /// Async task-graph scheduler activity, from HostKind::Scheduler
  /// spans: jobs dispatched by drains (one span each) and the summed
  /// virtual time jobs spent registered-but-undispatched (each span's
  /// value). maxConcurrentJobs is the peak concurrency of scheduler and
  /// service jobs alike: the highest lane of a Scheduler span (a drain
  /// puts its job i on lane 1 + i) or of a TenantJob span (a job's
  /// window slot). All zero for synchronous (SKELCL_ASYNC=0) runs
  /// outside the job service.
  std::uint64_t schedulerJobs = 0;
  std::uint64_t schedQueueWaitNs = 0;
  std::uint64_t maxConcurrentJobs = 0;
  /// Bytes shipped across the simulated interconnect: the summed bytes
  /// of the "copy_node_in" commands (the inbound leg of each cross-node
  /// copy). Zero on single-node machines.
  std::uint64_t internodeBytes = 0;
  /// Whole-machine energy over the makespan (sum of device energyJ).
  double totalEnergyJ = 0.0;
  /// Whole-machine kernelCycles / totalEnergyJ.
  double perfPerWatt = 0.0;
};

Report analyze(const Trace& trace);

/// Human-readable per-device utilization/overlap report, `topN` kernels.
std::string formatReport(const Report& report, std::size_t topN = 10);

} // namespace trace
