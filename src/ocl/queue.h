// Command queue: the only way work reaches a device.
//
// Each enqueue executes the command's real effect immediately (memcpy,
// kernel interpretation) and then hands the command to submit(), the one
// place every command is scheduled, retired, charged and traced. A
// command occupies one or more *legs*, each an engine of some device —
// kernel launches and on-device copies the compute engine, uploads the
// H2D DMA engine, downloads the D2H DMA engine, and a cross-device copy
// two legs: the source's D2H engine, then the destination's H2D engine:
//   start = max(every leg's engine ready, host now, dependencies' end)
//   end   = start + modeled duration
// Commands on one engine execute FIFO; commands on different engines
// overlap unless an event dependency orders them. An *in-order* queue
// (the default, matching clCreateCommandQueue without
// CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE) additionally waits for each
// leg's whole device and chains every command after the previous one,
// serializing across engines exactly like a real in-order queue; it
// serves SKELCL_SERIALIZE=1, the OpenCL baselines and the CUDA veneer.
// Out-of-order queues schedule purely from the event dependency DAG —
// SkelCL's runtime uses them to overlap transfers with compute.
// Blocking variants advance the host clock to the command's end, exactly
// like clFinish / blocking clEnqueueReadBuffer would stall a real host.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "common/prng.h"
#include "ocl/event.h"
#include "ocl/program.h"
#include "ocl/timing_model.h"
#include "trace/trace.h"

namespace ocl {

struct NDRange1D {
  std::size_t global = 0;
  std::size_t local = 0;
  std::size_t offset = 0; // global work offset (clEnqueueNDRangeKernel)
};

/// Execution discipline of a CommandQueue (CL_QUEUE_OUT_OF_ORDER_...).
enum class QueueOrder {
  InOrder,    // every command implicitly depends on the previous one
  OutOfOrder, // commands are ordered only by engines and explicit deps
};

/// Ready-queue tie-breaking of the out-of-order scheduler.
///
/// The event DAG underdetermines the schedule: when several commands are
/// ready, a real scheduler picks one and the rest incur dispatch latency.
/// Fifo (the default) always dispatches immediately in enqueue order —
/// the single deterministic schedule the rest of the test suite runs on.
/// SeededShuffle models every other legal tie-break by delaying each
/// command's dispatch by a bounded pseudo-random amount drawn from a
/// seeded PRNG: all DAG and engine-FIFO constraints still hold (a start
/// time only ever moves later), so each seed yields one alternative legal
/// schedule, byte-reproducible from the seed. The schedule-fuzzing suite
/// asserts that outputs, kernel cycles, and per-engine busy totals are
/// invariant across seeds. In-order queues ignore the policy (they have
/// no tie to break).
struct SchedulePolicy {
  enum class Kind : std::uint8_t { Fifo, SeededShuffle };
  Kind kind = Kind::Fifo;
  std::uint64_t seed = 0;

  static SchedulePolicy fifo() noexcept { return {}; }
  static SchedulePolicy seededShuffle(std::uint64_t seed) noexcept {
    return {Kind::SeededShuffle, seed};
  }
};

class CommandQueue {
public:
  CommandQueue() = default;
  CommandQueue(Device device, Backend backend = Backend::OpenCL,
               QueueOrder order = QueueOrder::InOrder,
               SchedulePolicy policy = SchedulePolicy::fifo());

  bool valid() const noexcept { return device_.valid(); }
  Device device() const noexcept { return device_; }
  Backend backend() const noexcept { return backend_; }
  QueueOrder order() const noexcept { return order_; }
  const SchedulePolicy& schedulePolicy() const noexcept { return policy_; }

  /// Host -> device on the H2D DMA engine. Non-blocking in virtual time
  /// (data is staged now); the returned event marks when the device-side
  /// copy is complete — pass it as a dependency to commands that read the
  /// buffer from another engine.
  Event enqueueWriteBuffer(const Buffer& buffer, std::size_t offset,
                           std::size_t bytes, const void* src,
                           const std::vector<Event>& deps = {});

  /// Device -> host on the D2H DMA engine. Pass the event of the command
  /// that produced the buffer contents in `deps`; with `blocking` the
  /// host clock advances to completion, otherwise wait on the returned
  /// event at the true consumption point.
  Event enqueueReadBuffer(const Buffer& buffer, std::size_t offset,
                          std::size_t bytes, void* dst, bool blocking = true,
                          const std::vector<Event>& deps = {});

  /// Buffer -> buffer copy. Same-device copies run on the compute engine
  /// at memory bandwidth; cross-device copies are staged via PCIe and
  /// occupy the source's D2H and the destination's H2D engines.
  Event enqueueCopyBuffer(const Buffer& src, std::size_t srcOffset,
                          const Buffer& dst, std::size_t dstOffset,
                          std::size_t bytes,
                          const std::vector<Event>& deps = {});

  /// ND-range kernel launch on the compute engine (1D convenience below).
  Event enqueueNDRange(Kernel& kernel, const clc::NDRange& range,
                       const std::vector<Event>& deps = {});
  Event enqueueNDRange(Kernel& kernel, NDRange1D range,
                       const std::vector<Event>& deps = {});

  /// Blocks the virtual host until every enqueued command has completed
  /// (the max over all three engine timelines).
  void finish();

  /// Total simulated kernel cycles enqueued through this queue since
  /// construction. Scheduling-invariance checks compare this across
  /// serialized and overlapped runs of the same workload.
  std::uint64_t cumulativeKernelCycles() const noexcept {
    return cumulativeKernelCycles_;
  }

  /// Number of kernel launches enqueued through this queue since
  /// construction. The fusion suite compares this across fused and
  /// unfused runs of the same workload.
  std::uint64_t cumulativeKernelLaunches() const noexcept {
    return cumulativeKernelLaunches_;
  }

private:
  /// One engine a command occupies, and the label of its trace span.
  struct Leg {
    DeviceState& device;
    Engine engine;
    std::string_view label;
  };

  /// Throws DeviceLost when the queue's device has been marked lost.
  /// Every enqueue checks this first, before any effect.
  void requireDeviceAlive() const;
  /// Bounded pseudo-random dispatch latency under SeededShuffle on an
  /// out-of-order queue; 0 under Fifo or on in-order queues.
  std::uint64_t dispatchJitterNs();
  /// Schedules and closes out one command occupying `legs` for
  /// `durationNs`: it starts no earlier than `notBeforeNs`, host now,
  /// every leg's engine (its whole device on an in-order queue), the
  /// in-order previous command and `deps`. Stamps one event named by the
  /// last leg, occupies every leg's engine, charges each leg's device,
  /// and — when tracing is on — files one span per leg (kind/label/
  /// bytes/cycles plus the dependency edges that constrained the start).
  Event submit(std::initializer_list<Leg> legs, std::uint64_t durationNs,
               trace::CommandKind kind, std::uint64_t bytes,
               std::uint64_t cycles, const std::vector<Event>& deps,
               std::uint64_t notBeforeNs = 0);
  /// Shared body of enqueueWriteBuffer (`upload`: `hostSrc` -> buffer on
  /// the H2D engine) and enqueueReadBuffer (buffer -> `hostDst` on the
  /// D2H engine).
  Event transfer(bool upload, const Buffer& buffer, std::size_t offset,
                 std::size_t bytes, std::uint8_t* hostDst,
                 const std::uint8_t* hostSrc, const std::vector<Event>& deps);

  Device device_;
  Backend backend_ = Backend::OpenCL;
  QueueOrder order_ = QueueOrder::InOrder;
  SchedulePolicy policy_;
  common::Xoshiro256 scheduleRng_;
  TimingModel model_{DeviceSpec{}, Backend::OpenCL};
  Event last_; // previous command, for in-order chaining
  std::uint64_t lastSubmittedEndNs_ = 0;
  std::uint64_t cumulativeKernelCycles_ = 0;
  std::uint64_t cumulativeKernelLaunches_ = 0;
};

} // namespace ocl
