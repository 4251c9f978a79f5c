// trace::Recorder — the process-wide sink the instrumented layers emit
// into.
//
// Overhead contract: when recording is off, every emit hook reduces to
// one relaxed atomic load (`Recorder::enabled()`); callers must check it
// *before* building labels or dependency lists, so a run with tracing
// disabled executes the exact same virtual-time schedule as an
// uninstrumented build. The recorder only ever *reads* the virtual
// clock — it never advances it — so the schedule is also invariant with
// tracing on (asserted by tests/trace/determinism_test.cpp).
//
// Thread safety: all mutation happens under one mutex; the enabled flag
// is atomic so the disabled fast path stays lock-free. Emission order
// under the lock is the enqueue order, which is what makes traces of a
// deterministic workload byte-identical across runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "trace/trace.h"

namespace trace {

/// Virtual "now" in nanoseconds, read through the time source the
/// simulation layer registers (ocl::hostTimeNs). Returns 0 before any
/// source is registered.
std::uint64_t now() noexcept;
void setTimeSource(std::uint64_t (*source)() noexcept) noexcept;

class Recorder {
public:
  static Recorder& instance();

  /// Disabled fast path: one relaxed atomic load.
  static bool enabled() noexcept {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  /// Clears any previously collected data and starts recording.
  void start();

  /// Stops recording and returns everything collected since start().
  /// Harmless when recording never started (returns an empty trace).
  Trace stop();

  /// Identity of the simulated devices; kept across start()/stop() and
  /// refreshed by ocl::configureSystem regardless of the enabled state.
  void setDevices(std::vector<DeviceInfo> devices);

  /// Everything needed to file one engine span. `deps` may be null.
  struct CommandInit {
    std::uint64_t id = 0;
    std::uint32_t device = 0;
    std::uint8_t engine = 0;
    CommandKind kind = CommandKind::Kernel;
    std::string_view label;
    std::uint64_t queuedNs = 0;
    std::uint64_t submitNs = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t cycles = 0;
    const std::vector<std::uint64_t>* deps = nullptr;
  };

  /// Files an engine span. It is the only record of its bytes and
  /// cycles: analyze() and chromeJson() derive the per-device H2D/D2H
  /// byte and kernel-cycle totals from the commands themselves.
  void recordCommand(const CommandInit& init);

  void recordHostSpan(HostKind kind, std::string_view name,
                      std::uint32_t device, std::uint64_t startNs,
                      std::uint64_t endNs, std::uint64_t value = 0,
                      std::uint32_t lane = 0, std::uint64_t value2 = 0);

  /// Advances a counter by `delta` and files the new per-trace total.
  /// Totals reset at start(), so traces never leak process-lifetime
  /// statistics (which would break run-to-run trace determinism).
  /// Counters carry only facts no command or host span records: halo
  /// and intermediate bytes, tenant accounting.
  void bumpCounter(std::string_view name, std::uint32_t device,
                   std::uint64_t timeNs, std::uint64_t delta);

private:
  Recorder() = default;

  std::uint32_t internLocked(std::string_view s);

  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  Trace trace_;
  std::vector<DeviceInfo> devices_;
  std::unordered_map<std::string, std::uint32_t> internMap_;
  std::unordered_map<std::string, std::uint64_t> counterTotals_;
};

/// Files a Decision (HostKind::Decision) at virtual now, carrying
/// `value` and `value2` (0 when the decision has no datum); one atomic
/// load when recording is off. A caller that builds `name` checks
/// enabled() first.
inline void recordDecision(std::string_view name, std::uint64_t value = 0,
                           std::uint64_t value2 = 0) {
  if (Recorder::enabled()) {
    const std::uint64_t nowNs = now();
    Recorder::instance().recordHostSpan(HostKind::Decision, name, kNoDevice,
                                        nowNs, nowNs, value, 0, value2);
  }
}

/// RAII host span: captures virtual start/end around a runtime phase.
/// Free when recording is disabled (one atomic load in the constructor,
/// nothing in the destructor).
class ScopedHostSpan {
public:
  ScopedHostSpan(HostKind kind, const char* name,
                 std::uint32_t device = kNoDevice, std::uint64_t value = 0)
      : active_(Recorder::enabled()),
        kind_(kind),
        name_(name),
        device_(device),
        value_(value),
        startNs_(active_ ? now() : 0) {}

  ScopedHostSpan(const ScopedHostSpan&) = delete;
  ScopedHostSpan& operator=(const ScopedHostSpan&) = delete;

  ~ScopedHostSpan() {
    if (active_) {
      Recorder::instance().recordHostSpan(kind_, name_, device_, startNs_,
                                          now(), value_);
    }
  }

private:
  bool active_;
  HostKind kind_;
  const char* name_;
  std::uint32_t device_;
  std::uint64_t value_;
  std::uint64_t startNs_;
};

} // namespace trace
