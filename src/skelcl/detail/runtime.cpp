#include "skelcl/detail/runtime.h"

#include <cstdio>

#include "common/env.h"
#include "skelcl/detail/partition.h"
#include "skelcl/detail/scheduler.h"
#include "skelcl/distribution.h"
#include "trace/recorder.h"
#include "trace/serialize.h"

namespace skelcl {

const char* distributionName(Distribution d) noexcept {
  switch (d) {
    case Distribution::Single: return "single";
    case Distribution::Copy: return "copy";
    case Distribution::Block: return "block";
  }
  return "?";
}

namespace detail {

Runtime& Runtime::instance() {
  static Runtime runtime;
  return runtime;
}

void Runtime::init(const DeviceSelection& selection) {
  if (initialized_) {
    terminate();
  }
  // SKELCL_SCHEDULE_SEED=N explores an alternative legal schedule, the
  // seeded shuffle N (see Runtime::schedulePolicy); unset or empty, the
  // single deterministic FIFO tie-break order runs. Any other value
  // throws before anything is claimed, so a fuzz run never believes it
  // explores seed N while it runs FIFO.
  const std::string seedText = envStr("SKELCL_SCHEDULE_SEED");
  const std::optional<long long> seed = common::parseInt(seedText);
  if (!seedText.empty() && !seed) {
    throw common::InvalidArgument("SKELCL_SCHEDULE_SEED '" + seedText +
                                  "' is not an integer");
  }
  // SKELCL_DEVICES replaces the simulated machine wholesale with the
  // spec'd (possibly heterogeneous) platform, and the selection widens
  // to every spec'd device — the spec already says exactly which devices
  // the user wants, including CPU entries a GPU-only selection would
  // silently drop.
  DeviceSelection effective = selection;
  const std::string deviceSpec = envStr("SKELCL_DEVICES");
  if (!deviceSpec.empty()) {
    ocl::configureSystem(ocl::SystemConfig::parse(deviceSpec));
    effective = DeviceSelection::allDevices();
  }
  devices_.clear();
  for (const auto& platform : ocl::getPlatforms()) {
    for (const auto& device : platform.devices(effective.type)) {
      devices_.push_back(device);
      if (effective.count != 0 && devices_.size() == effective.count) {
        break;
      }
    }
    if (effective.count != 0 && devices_.size() == effective.count) {
      break;
    }
  }
  COMMON_EXPECTS(!devices_.empty(),
                 "SkelCL init: no matching devices available");
  if (effective.count != 0 && devices_.size() < effective.count) {
    throw common::InvalidArgument(
        "SkelCL init: requested " + std::to_string(effective.count) +
        " devices, only " + std::to_string(devices_.size()) + " available");
  }
  blockWeights_.clear();
  for (const auto& device : devices_) {
    blockWeights_.push_back(device.spec().peakCyclesPerNs());
  }
  context_ = std::make_unique<ocl::Context>(devices_);
  // Out-of-order queues let transfers overlap compute on each device's
  // engine timelines; the skeletons express ordering through event
  // dependencies. SKELCL_SERIALIZE=1 restores the pre-overlap behavior
  // (in-order queues) without changing which commands are enqueued.
  serializedQueues_ = envFlag("SKELCL_SERIALIZE");
  // SKELCL_FUSION=0 turns the rewrite rules off: the expression DAG is
  // still built, but every node evaluates as its own kernel — the
  // differential baseline the fusion suite compares against.
  fusionEnabled_ = envFlag("SKELCL_FUSION", true);
  fusedStages_.store(0);
  {
    std::lock_guard lock(programMutex_);
    programMemo_.clear();
  }
  // SKELCL_ASYNC=0 turns the task-graph scheduler off: every deferred
  // job evaluates at its own consumption point, exactly the pre-async
  // behavior — the differential baseline the async suite compares
  // against.
  Scheduler::instance().configure(envFlag("SKELCL_ASYNC", true));
  schedulePolicy_ =
      seedText.empty()
          ? ocl::SchedulePolicy::fifo()
          : ocl::SchedulePolicy::seededShuffle(std::uint64_t(*seed));
  orderRng_ = common::Xoshiro256(schedulePolicy_.seed ^
                                 0xd1b54a32d192ed03ULL);
  // SKELCL_FAULT_PLAN arms deterministic fault injection (seed 0) for
  // this init()..terminate() cycle; reconfiguring here resets the
  // injector's counters and PRNG, so two identical runs replay the
  // exact same failure sequence.
  ocl::FaultInjector::instance().configureFromEnv();
  // SKELCL_TRACE=<path> records this init()..terminate() cycle and
  // writes the trace at terminate() — Chrome trace-event JSON when the
  // path ends in ".json", the skeltrace binary format otherwise. Each
  // cycle overwrites the file (the virtual clock restarts with the
  // simulated machine, so concatenating cycles would be meaningless).
  tracePath_ = envStr("SKELCL_TRACE");
  if (!tracePath_.empty()) {
    trace::Recorder::instance().start();
  }
  queues_.clear();
  for (const auto& device : devices_) {
    queues_.emplace_back(device, ocl::Backend::OpenCL,
                         serializedQueues_ ? ocl::QueueOrder::InOrder
                                           : ocl::QueueOrder::OutOfOrder,
                         schedulePolicy_);
  }
  if (cache_ == nullptr) {
    cache_ = std::make_unique<KernelCache>();
  }
  initialized_ = true;
}

void Runtime::terminate() {
  // Outstanding deferred jobs are dead code at terminate (their outputs
  // can never be read afterwards), exactly as under synchronous
  // evaluation — drop them instead of dispatching.
  Scheduler::instance().reset();
  if (!tracePath_.empty() && trace::Recorder::enabled()) {
    const trace::Trace collected = trace::Recorder::instance().stop();
    try {
      trace::writeTraceFile(tracePath_, collected);
    } catch (const common::Error& e) {
      // The one failure the trace itself cannot carry.
      std::fprintf(stderr, "skelcl: cannot write trace to %s: %s\n",
                   tracePath_.c_str(), e.what());
    }
  }
  tracePath_.clear();
  queues_.clear();
  {
    std::lock_guard lock(programMutex_);
    programMemo_.clear();
  }
  {
    std::lock_guard lock(nameMutex_);
    nameMemo_.clear();
  }
  context_.reset();
  devices_.clear();
  blockWeights_.clear();
  initialized_ = false;
}

ocl::Program Runtime::programFor(const std::string& source) {
  requireInit();
  std::shared_ptr<ProgramEntry> entry;
  {
    std::lock_guard lock(programMutex_);
    if (programMemo_.size() >= kMemoCapacity &&
        !programMemo_.contains(source)) {
      programMemo_.clear();
    }
    std::shared_ptr<ProgramEntry>& slot = programMemo_[source];
    if (slot == nullptr) {
      slot = std::make_shared<ProgramEntry>();
    }
    entry = slot;
  }
  // Build outside the map lock so distinct sources requested from
  // several threads compile in parallel; call_once makes concurrent
  // requests for the same source share one build. A throwing build
  // leaves the flag unset, so the next request retries — the same
  // "failed builds are not memoized" semantics the synchronous path had.
  std::call_once(entry->once, [&] {
    entry->program.emplace(kernelCache().getOrBuild(*context_, source));
  });
  return *entry->program;
}

void Runtime::requireInit() const {
  if (!initialized_) {
    throw common::Error(
        "SkelCL is not initialized; call skelcl::init() first");
  }
}

const std::vector<ocl::Device>& Runtime::devices() const {
  requireInit();
  return devices_;
}

ocl::Context& Runtime::context() {
  requireInit();
  return *context_;
}

ocl::CommandQueue& Runtime::queue(std::size_t deviceIndex) {
  requireInit();
  COMMON_CHECK(deviceIndex < queues_.size());
  return queues_[deviceIndex];
}

std::vector<std::size_t> Runtime::chunkVisitOrder(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  if (schedulePolicy_.kind == ocl::SchedulePolicy::Kind::SeededShuffle) {
    // Fisher-Yates with the runtime's seeded stream: deterministic per
    // (seed, call sequence), different per call.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[orderRng_.nextBelow(i)]);
    }
  }
  return order;
}

const std::vector<double>& Runtime::blockWeights() const {
  requireInit();
  return blockWeights_;
}

std::vector<std::uint32_t> Runtime::deviceNodes() const {
  requireInit();
  std::vector<std::uint32_t> nodes;
  nodes.reserve(devices_.size());
  for (const auto& device : devices_) {
    nodes.push_back(device.node());
  }
  return nodes;
}

std::vector<std::size_t> Runtime::blockPartition(std::size_t n) const {
  return nodeBlockPartition(n, blockWeights(), deviceNodes());
}

KernelCache& Runtime::kernelCache() {
  if (cache_ == nullptr) {
    cache_ = std::make_unique<KernelCache>();
  }
  return *cache_;
}

} // namespace detail

void init(const DeviceSelection& selection) {
  detail::Runtime::instance().init(selection);
}

void terminate() { detail::Runtime::instance().terminate(); }

std::size_t deviceCount() {
  return detail::Runtime::instance().deviceCount();
}

} // namespace skelcl
