#include "trace/recorder.h"

#include "common/error.h"

namespace trace {

namespace {

std::uint64_t (*g_timeSource)() noexcept = nullptr;

} // namespace

std::uint64_t now() noexcept {
  return g_timeSource != nullptr ? g_timeSource() : 0;
}

void setTimeSource(std::uint64_t (*source)() noexcept) noexcept {
  g_timeSource = source;
}

const char* engineLabel(std::uint8_t engine) noexcept {
  switch (engine) {
    case 0: return "compute";
    case 1: return "h2d dma";
    case 2: return "d2h dma";
  }
  return "?";
}

const char* commandKindLabel(CommandKind kind) noexcept {
  switch (kind) {
    case CommandKind::Kernel: return "kernel";
    case CommandKind::Write: return "write";
    case CommandKind::Read: return "read";
    case CommandKind::CopyOnDevice: return "copy";
    case CommandKind::CopyPeer: return "copy_peer";
  }
  return "?";
}

const char* hostKindLabel(HostKind kind) noexcept {
  switch (kind) {
    case HostKind::Skeleton: return "skeleton";
    case HostKind::Build: return "build";
    case HostKind::CacheHit: return "cache_hit";
    case HostKind::Transfer: return "transfer";
    case HostKind::Redistribute: return "redistribute";
    case HostKind::Combine: return "combine";
    case HostKind::Scheduler: return "scheduler";
    case HostKind::TenantJob: return "tenant_job";
    case HostKind::Decision: return "decision";
  }
  return "?";
}

const std::string& Trace::str(std::uint32_t index) const {
  COMMON_CHECK_MSG(index < strings.size(),
                   "trace string index out of range");
  return strings[index];
}

Recorder& Recorder::instance() {
  static Recorder recorder;
  return recorder;
}

void Recorder::start() {
  std::lock_guard lock(mutex_);
  trace_ = Trace{};
  internMap_.clear();
  counterTotals_.clear();
  trace_.strings.push_back(""); // index 0 = empty name
  internMap_.emplace("", 0);
  trace_.devices = devices_;
  enabled_.store(true, std::memory_order_relaxed);
}

Trace Recorder::stop() {
  std::lock_guard lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  Trace out = std::move(trace_);
  trace_ = Trace{};
  internMap_.clear();
  counterTotals_.clear();
  return out;
}

void Recorder::setDevices(std::vector<DeviceInfo> devices) {
  std::lock_guard lock(mutex_);
  devices_ = std::move(devices);
  if (enabled_.load(std::memory_order_relaxed)) {
    trace_.devices = devices_;
  }
}

std::uint32_t Recorder::internLocked(std::string_view s) {
  auto it = internMap_.find(std::string(s));
  if (it != internMap_.end()) {
    return it->second;
  }
  const auto index = std::uint32_t(trace_.strings.size());
  trace_.strings.emplace_back(s);
  internMap_.emplace(trace_.strings.back(), index);
  return index;
}

void Recorder::recordCommand(const CommandInit& init) {
  std::lock_guard lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  CommandRecord record;
  record.id = init.id;
  record.device = init.device;
  record.engine = init.engine;
  record.kind = init.kind;
  record.name = internLocked(init.label);
  record.queuedNs = init.queuedNs;
  record.submitNs = init.submitNs;
  record.startNs = init.startNs;
  record.endNs = init.endNs;
  record.bytes = init.bytes;
  record.cycles = init.cycles;
  if (init.deps != nullptr) {
    record.deps = *init.deps;
  }
  trace_.commands.push_back(std::move(record));
}

void Recorder::recordHostSpan(HostKind kind, std::string_view name,
                              std::uint32_t device, std::uint64_t startNs,
                              std::uint64_t endNs, std::uint64_t value,
                              std::uint32_t lane, std::uint64_t value2) {
  std::lock_guard lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  HostSpanRecord record;
  record.name = internLocked(name);
  record.kind = kind;
  record.device = device;
  record.lane = lane;
  record.startNs = startNs;
  record.endNs = endNs;
  record.value = value;
  record.value2 = value2;
  trace_.hostSpans.push_back(record);
}

void Recorder::bumpCounter(std::string_view name, std::uint32_t device,
                           std::uint64_t timeNs, std::uint64_t delta) {
  std::lock_guard lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  const std::string key = std::string(name) + "#" + std::to_string(device);
  CounterRecord record;
  record.name = internLocked(name);
  record.device = device;
  record.timeNs = timeNs;
  record.value = (counterTotals_[key] += delta);
  trace_.counters.push_back(record);
}

} // namespace trace
