#include "ocl/queue.h"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.h"
#include "ocl/fault.h"
#include "trace/recorder.h"

namespace ocl {

namespace {

[[noreturn]] void throwDeviceLost(const DeviceState& state,
                                  const char* during) {
  throw DeviceLost(state.index(),
                   std::string("device ") + std::to_string(state.index()) +
                       " ('" + state.spec().name + "') is lost (" +
                       statusName(Status::DeviceNotAvailable) + ") during " +
                       during);
}

/// Fires the fault hook for a transfer at `site`, then copies `bytes`
/// from `src` to `dst`. A fault models a *truncated* transfer: half of the
/// requested bytes land in the destination before the typed exception;
/// queue and timeline state stay untouched (the command never retires, no
/// event is produced, no engine time is occupied), so the caller may keep
/// enqueueing.
void moveBytes(FaultSite site, const char* label, DeviceState& device,
               std::uint8_t* dst, const std::uint8_t* src,
               std::size_t bytes) {
  if (FaultInjector::enabled()) {
    if (const auto fault =
            FaultInjector::instance().check(site, label, device.index())) {
      if (fault->deviceLost) {
        device.markLost();
        throwDeviceLost(device, faultSiteName(fault->site));
      }
      const std::size_t transferred = bytes / 2;
      if (dst != nullptr && src != nullptr) {
        std::memcpy(dst, src, transferred);
      }
      throw TransferFailure(
          device.index(), bytes, transferred,
          std::string("injected transfer failure (") +
              statusName(Status::OutOfResources) + ") at site '" +
              faultSiteName(fault->site) + "' on device " +
              std::to_string(device.index()) + ": " +
              std::to_string(transferred) + " of " + std::to_string(bytes) +
              " bytes transferred");
    }
  }
  std::memcpy(dst, src, bytes);
}

/// Ids of the events a command's start actually waited on, plus the
/// in-order queue's implicit previous-command edge when present.
std::vector<std::uint64_t> depIds(const std::vector<Event>& deps,
                                  const Event& implicitPrev) {
  std::vector<std::uint64_t> ids;
  ids.reserve(deps.size() + 1);
  if (implicitPrev.valid()) {
    ids.push_back(implicitPrev.commandId());
  }
  for (const Event& e : deps) {
    if (e.valid()) {
      ids.push_back(e.commandId());
    }
  }
  return ids;
}

} // namespace

CommandQueue::CommandQueue(Device device, Backend backend, QueueOrder order,
                           SchedulePolicy policy)
    : device_(std::move(device)),
      backend_(backend),
      order_(order),
      policy_(policy),
      // Decorrelate the per-queue jitter streams: one policy seed, one
      // independent deterministic sequence per device.
      scheduleRng_(policy.seed ^
                   (0x9e3779b97f4a7c15ULL * (device_.state().index() + 1))),
      model_(device_.spec(), backend) {}

void CommandQueue::requireDeviceAlive() const {
  if (device_.state().lost()) {
    throwDeviceLost(device_.state(), "enqueue");
  }
}

std::uint64_t CommandQueue::dispatchJitterNs() {
  if (order_ != QueueOrder::OutOfOrder ||
      policy_.kind != SchedulePolicy::Kind::SeededShuffle) {
    return 0;
  }
  // Up to a few enqueue overheads of dispatch latency: enough to flip
  // the winner among near-tied ready commands, small against command
  // durations so the shuffled schedules stay realistic.
  return scheduleRng_.nextBelow(8 * model_.enqueueOverheadNs() + 1);
}

Event CommandQueue::submit(std::initializer_list<Leg> legs,
                           std::uint64_t durationNs, trace::CommandKind kind,
                           std::uint64_t bytes, std::uint64_t cycles,
                           const std::vector<Event>& deps,
                           std::uint64_t notBeforeNs) {
  // An in-order queue serializes against each leg's *whole device* (the
  // max over all engines), not just the engine the leg occupies — this
  // matches the classic single-timeline device model, and it is what the
  // CUDA veneer's default-stream semantics rely on even across separate
  // queue objects. Out-of-order queues wait only for the legs' own
  // engines plus explicit dependencies.
  const bool inOrder = order_ == QueueOrder::InOrder;
  std::uint64_t start = std::max(hostTimeNs(), notBeforeNs);
  for (const Leg& leg : legs) {
    start = std::max(start, inOrder ? leg.device.readyTimeNs()
                                    : leg.device.readyTimeNs(leg.engine));
  }
  if (inOrder && last_.valid()) {
    start = std::max(start, last_.endNs());
  }
  for (const Event& e : deps) {
    if (e.valid()) {
      start = std::max(start, e.endNs());
    }
  }
  start += dispatchJitterNs();

  const Leg& named = *(legs.end() - 1);
  auto state = std::make_shared<EventState>();
  state->id = nextCommandId();
  state->queuedNs = hostTimeNs();
  state->startNs = start;
  state->endNs = start + durationNs;
  // Submission = queued + driver overhead, clamped so that
  // queued <= submit <= start holds even when the engine was idle.
  state->submitNs =
      std::min(start, state->queuedNs + model_.enqueueOverheadNs());
  state->engine = named.engine;
  for (const Leg& leg : legs) {
    leg.device.setReadyTimeNs(leg.engine, state->endNs);
    if (kind == trace::CommandKind::Kernel) {
      leg.device.chargeKernel(cycles);
    } else if (leg.engine != Engine::Compute) {
      leg.device.chargeDma(bytes);
    }
  }
  lastSubmittedEndNs_ = std::max(lastSubmittedEndNs_, state->endNs);
  advanceHostTimeNs(model_.enqueueOverheadNs());
  if (trace::Recorder::enabled()) {
    // One span per leg, so every occupied timeline shows the command. The
    // event's id names the last leg (what dependents wait on); each
    // earlier leg gets an id of its own.
    const std::vector<std::uint64_t> ids =
        depIds(deps, inOrder ? last_ : Event());
    trace::Recorder::CommandInit init;
    init.kind = kind;
    init.queuedNs = state->queuedNs;
    init.submitNs = state->submitNs;
    init.startNs = state->startNs;
    init.endNs = state->endNs;
    init.bytes = bytes;
    init.cycles = cycles;
    init.deps = &ids;
    for (const Leg& leg : legs) {
      init.id = &leg == &named ? state->id : nextCommandId();
      init.device = leg.device.index();
      init.engine = std::uint8_t(leg.engine);
      init.label = leg.label;
      trace::Recorder::instance().recordCommand(init);
    }
  }
  Event event(std::move(state));
  last_ = event;
  return event;
}

Event CommandQueue::transfer(bool upload, const Buffer& buffer,
                             std::size_t offset, std::size_t bytes,
                             std::uint8_t* hostDst,
                             const std::uint8_t* hostSrc,
                             const std::vector<Event>& deps) {
  COMMON_EXPECTS(buffer.valid(), upload ? "write to invalid buffer"
                                        : "read from invalid buffer");
  COMMON_EXPECTS(buffer.device() == device_,
                 "buffer belongs to a different device than the queue");
  COMMON_EXPECTS(offset + bytes <= buffer.size(),
                 upload ? "write exceeds buffer size"
                        : "read exceeds buffer size");
  requireDeviceAlive();
  const char* label = upload ? "write_buffer" : "read_buffer";
  std::uint8_t* onDevice = buffer.state().data() + offset;
  // A truncated read leaves a partially-written destination — the SkelCL
  // Vector stages downloads and commits only on success, so its host
  // data stays valid anyway.
  moveBytes(upload ? FaultSite::Write : FaultSite::Read, label,
            device_.state(), upload ? onDevice : hostDst,
            upload ? hostSrc : onDevice, bytes);
  return submit({{device_.state(),
                  upload ? Engine::HostToDevice : Engine::DeviceToHost,
                  label}},
                model_.transferDurationNs(bytes),
                upload ? trace::CommandKind::Write : trace::CommandKind::Read,
                bytes, 0, deps);
}

Event CommandQueue::enqueueWriteBuffer(const Buffer& buffer,
                                       std::size_t offset, std::size_t bytes,
                                       const void* src,
                                       const std::vector<Event>& deps) {
  return transfer(/*upload=*/true, buffer, offset, bytes, nullptr,
                  static_cast<const std::uint8_t*>(src), deps);
}

Event CommandQueue::enqueueReadBuffer(const Buffer& buffer,
                                      std::size_t offset, std::size_t bytes,
                                      void* dst, bool blocking,
                                      const std::vector<Event>& deps) {
  Event event = transfer(/*upload=*/false, buffer, offset, bytes,
                         static_cast<std::uint8_t*>(dst), nullptr, deps);
  if (blocking) {
    event.wait();
  }
  return event;
}

Event CommandQueue::enqueueCopyBuffer(const Buffer& src,
                                      std::size_t srcOffset,
                                      const Buffer& dst,
                                      std::size_t dstOffset,
                                      std::size_t bytes,
                                      const std::vector<Event>& deps) {
  COMMON_EXPECTS(src.valid() && dst.valid(), "copy with invalid buffer");
  COMMON_EXPECTS(srcOffset + bytes <= src.size(),
                 "copy source range exceeds buffer");
  COMMON_EXPECTS(dstOffset + bytes <= dst.size(),
                 "copy destination range exceeds buffer");
  const bool sameDevice = src.device() == dst.device();
  // On-device copies run on the buffers' device, so it must be the
  // queue's device — otherwise the duration would be computed from the
  // wrong device's bandwidth and charged to the wrong timeline. Validated
  // *before* the data moves, so a rejected enqueue has no effect.
  if (sameDevice) {
    COMMON_EXPECTS(src.device() == device_,
                   "buffer belongs to a different device than the queue");
  }
  requireDeviceAlive();
  DeviceState& srcState = src.device().state();
  DeviceState& dstState = dst.device().state();
  if (srcState.lost()) {
    throwDeviceLost(srcState, "copy");
  }
  if (dstState.lost()) {
    throwDeviceLost(dstState, "copy");
  }
  moveBytes(FaultSite::Copy, "copy_buffer", dstState,
            dst.state().data() + dstOffset, src.state().data() + srcOffset,
            bytes);

  if (sameDevice) {
    // The copy occupies the compute engine (it saturates the memory
    // system the compute engine feeds from).
    return submit({{dstState, Engine::Compute, "copy_buffer"}},
                  model_.deviceCopyDurationNs(bytes),
                  trace::CommandKind::CopyOnDevice, bytes, 0, deps);
  }

  // Cross-device: staged over PCIe (down from src, up to dst). The
  // source's D2H engine and the destination's H2D engine are both
  // occupied for the whole transfer; the compute engines of both devices
  // stay free to overlap kernels with the copy. A cross-node copy also
  // occupies the source node's egress and the destination node's
  // ingress link.
  const bool crossNode = srcState.node() != dstState.node();
  NodeState* srcLink = crossNode ? srcState.link().get() : nullptr;
  NodeState* dstLink = crossNode ? dstState.link().get() : nullptr;
  const bool linked = srcLink != nullptr && dstLink != nullptr;
  // Cross-node copies carry distinct labels: skeltrace sums the
  // copy_node_in legs as interconnect traffic, apart from same-node PCIe
  // staging.
  Event event = submit(
      {{srcState, Engine::DeviceToHost,
        crossNode ? "copy_node_out" : "copy_peer_out"},
       {dstState, Engine::HostToDevice,
        crossNode ? "copy_node_in" : "copy_peer_in"}},
      peerCopyDurationNs(srcState, dstState, backend_, bytes),
      trace::CommandKind::CopyPeer, bytes, 0, deps,
      linked ? std::max(srcLink->egressReadyNs(), dstLink->ingressReadyNs())
             : 0);
  if (linked) {
    srcLink->setEgressReadyNs(event.endNs());
    dstLink->setIngressReadyNs(event.endNs());
  }
  return event;
}

Event CommandQueue::enqueueNDRange(Kernel& kernel, const clc::NDRange& range,
                                   const std::vector<Event>& deps) {
  COMMON_EXPECTS(kernel.valid(), "launch of invalid kernel");
  requireDeviceAlive();

  // Assemble the launch's segment table and argument values.
  std::vector<clc::Segment> segments;
  std::vector<clc::KernelArgValue> args;
  const auto& staged = kernel.stagedArgs();
  for (std::size_t i = 0; i < staged.size(); ++i) {
    if (!staged[i].set) {
      throw common::InvalidArgument(
          "kernel '" + kernel.name() + "' argument " + std::to_string(i) +
          " was never set");
    }
    clc::KernelArgValue value = staged[i].value;
    if (value.kind == clc::KernelArgValue::Kind::Buffer) {
      COMMON_EXPECTS(staged[i].buffer.device() == device_,
                     "kernel argument buffer lives on a different device");
      clc::Segment seg;
      seg.base = staged[i].buffer.state().data();
      seg.size = staged[i].buffer.size();
      value.segmentIndex = std::uint32_t(segments.size());
      segments.push_back(seg);
    }
    args.push_back(std::move(value));
  }

  if (range.totalLocal() > device_.spec().maxWorkGroupSize) {
    throw common::InvalidArgument(
        "work-group size " + std::to_string(range.totalLocal()) +
        " exceeds the device maximum of " +
        std::to_string(device_.spec().maxWorkGroupSize));
  }

  // Static __local declarations plus every __local argument must fit the
  // device's local memory (CL_OUT_OF_RESOURCES), checked before anything
  // is allocated. Clamping each size keeps the 64-bit sum from wrapping.
  const std::uint64_t localLimit = device_.spec().localMemBytes;
  std::uint64_t localBytes = kernel.kernelInfo().staticLocalSize;
  for (const clc::KernelArgValue& arg : args) {
    if (arg.kind == clc::KernelArgValue::Kind::Local) {
      localBytes += std::min(arg.localSize, localLimit + 1);
    }
  }
  if (localBytes > localLimit) {
    throw LaunchFailure(
        device_.state().index(),
        std::string(statusName(Status::OutOfResources)) + ": kernel '" +
            kernel.name() + "' needs more __local memory than the " +
            std::to_string(localLimit) + " bytes of device " +
            std::to_string(device_.state().index()));
  }

  if (FaultInjector::enabled()) {
    if (const auto fault = FaultInjector::instance().check(
            FaultSite::Kernel, kernel.name(), device_.state().index())) {
      // A rejected launch never executes: no cycles are charged, no
      // buffer is written, no engine time is occupied.
      if (fault->deviceLost) {
        device_.state().markLost();
        throwDeviceLost(device_.state(), "kernel launch");
      }
      throw LaunchFailure(
          device_.state().index(),
          std::string("injected launch failure (") +
              statusName(Status::OutOfResources) + ") for kernel '" +
              kernel.name() + "' on device " +
              std::to_string(device_.state().index()));
    }
  }

  const clc::LaunchStats stats =
      clc::executeKernel(kernel.program(), kernel.name(), range, args,
                         segments, &common::ThreadPool::global());
  cumulativeKernelCycles_ += stats.totalCycles;
  cumulativeKernelLaunches_ += 1;
  return submit({{device_.state(), Engine::Compute, kernel.name()}},
                model_.kernelDurationNs(stats), trace::CommandKind::Kernel,
                stats.globalBytesRead + stats.globalBytesWritten,
                stats.totalCycles, deps);
}

Event CommandQueue::enqueueNDRange(Kernel& kernel, NDRange1D range,
                                   const std::vector<Event>& deps) {
  clc::NDRange full;
  full.dims = 1;
  full.globalSize[0] = range.global;
  full.localSize[0] = range.local;
  full.globalOffset[0] = range.offset;
  return enqueueNDRange(kernel, full, deps);
}

void CommandQueue::finish() {
  syncHostTimeToNs(
      std::max(device_.state().readyTimeNs(), lastSubmittedEndNs_));
}

} // namespace ocl
