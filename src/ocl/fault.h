// Deterministic fault injection for the simulated OpenCL runtime.
//
// In the style of deterministic-simulation testing (FoundationDB's
// simulator), every failure a real driver can produce — allocation
// failure, program build failure, truncated PCIe transfer, a device
// dropping off the bus mid-queue — can be injected at its natural hook
// point in src/ocl, driven by a *plan* evaluated against deterministic
// per-site call counters and a seeded PRNG. Given the same plan, seed,
// and call sequence, the entire failure sequence is byte-reproducible.
// A plan armed from SKELCL_FAULT_PLAN runs with seed 0; configure() and
// `skelfuzz --fault-seed` choose others.
//
// Plan grammar (SKELCL_FAULT_PLAN, comma-separated rules):
//
//   rule    := site [ '~' pattern ] '@' trigger [ '=lost' ]
//   site    := alloc | build | write | read | copy | kernel
//            | transfer   (write | read | copy)
//            | enqueue    (write | read | copy | kernel)
//            | any
//   trigger := K          fire on the K-th matching call (1-based)
//            | 'p' P      fire with probability P per call (seeded PRNG)
//            | '*'        fire on every matching call
//
// A '~pattern' restricts the rule to calls whose label contains the
// pattern as a substring (e.g. a kernel name); '=lost' turns the fault
// into a device loss: the device is marked lost and every later command
// targeting it fails with DeviceLost until the system is reconfigured.
//
// Examples:
//   SKELCL_FAULT_PLAN="transfer@3"              third transfer fails
//   SKELCL_FAULT_PLAN="build@1"                 first build fails
//   SKELCL_FAULT_PLAN="kernel~skelcl_map@2"     2nd map launch fails
//   SKELCL_FAULT_PLAN="enqueue@p0.1"            10% of enqueues fail
//   SKELCL_FAULT_PLAN="kernel@5=lost"           5th launch kills the device
//
// The injector never throws by itself: each hook site raises the typed
// exception below so it can attach site state (bytes copied before the
// truncation, the device index) and leave queue/timeline state intact.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/prng.h"

namespace ocl {

/// Where in the runtime a fault can fire.
enum class FaultSite : std::uint8_t {
  Alloc = 0,  // buffer allocation (Context::createBuffer)
  Build = 1,  // program build (Program::build)
  Write = 2,  // host -> device transfer (enqueueWriteBuffer)
  Read = 3,   // device -> host transfer (enqueueReadBuffer)
  Copy = 4,   // buffer -> buffer copy (enqueueCopyBuffer)
  Kernel = 5, // kernel launch (enqueueNDRange)
};

inline constexpr std::size_t kFaultSiteCount = 6;

const char* faultSiteName(FaultSite site) noexcept;

/// Device index used when a failure has no single device (builds).
inline constexpr std::uint32_t kNoFaultDevice = 0xffffffffu;

/// OpenCL-style status codes carried by injected failures.
enum class Status : std::int32_t {
  DeviceNotAvailable = -2,          // CL_DEVICE_NOT_AVAILABLE
  MemObjectAllocationFailure = -4,  // CL_MEM_OBJECT_ALLOCATION_FAILURE
  OutOfResources = -5,              // CL_OUT_OF_RESOURCES
  BuildProgramFailure = -11,        // CL_BUILD_PROGRAM_FAILURE
};

const char* statusName(Status status) noexcept;

/// Base of every driver-level runtime failure (injected or organic):
/// carries the OpenCL-style status and the device it happened on.
/// Callers up the stack (skeletons) prepend context — the message then
/// reads "Map skeleton on device 2: <original what>" while the dynamic
/// type stays catchable.
class ClError : public common::Error {
public:
  ClError(Status status, std::uint32_t deviceIndex, const std::string& what)
      : common::Error(what), status_(status), deviceIndex_(deviceIndex),
        what_(what) {}

  const char* what() const noexcept override { return what_.c_str(); }
  Status status() const noexcept { return status_; }
  std::uint32_t deviceIndex() const noexcept { return deviceIndex_; }

  void prependContext(const std::string& context) {
    what_ = context + ": " + what_;
  }

private:
  Status status_;
  std::uint32_t deviceIndex_;
  std::string what_;
};

/// Buffer allocation failed (CL_MEM_OBJECT_ALLOCATION_FAILURE /
/// CL_OUT_OF_RESOURCES). Thrown both by injected faults and by genuine
/// device-memory exhaustion.
class AllocFailure : public ClError {
public:
  AllocFailure(std::uint32_t deviceIndex, const std::string& what,
               Status status = Status::MemObjectAllocationFailure)
      : ClError(status, deviceIndex, what) {}
};

/// A host<->device or device<->device transfer failed. `bytesTransferred`
/// of `bytesRequested` landed before the failure (truncated transfer);
/// the destination range beyond that point is unspecified.
class TransferFailure : public ClError {
public:
  TransferFailure(std::uint32_t deviceIndex, std::size_t bytesRequested,
                  std::size_t bytesTransferred, const std::string& what)
      : ClError(Status::OutOfResources, deviceIndex, what),
        bytesRequested_(bytesRequested),
        bytesTransferred_(bytesTransferred) {}

  std::size_t bytesRequested() const noexcept { return bytesRequested_; }
  std::size_t bytesTransferred() const noexcept { return bytesTransferred_; }

private:
  std::size_t bytesRequested_;
  std::size_t bytesTransferred_;
};

/// A kernel launch was rejected (CL_OUT_OF_RESOURCES). The kernel did not
/// execute: no cycles were charged, no buffer was written.
class LaunchFailure : public ClError {
public:
  LaunchFailure(std::uint32_t deviceIndex, const std::string& what)
      : ClError(Status::OutOfResources, deviceIndex, what) {}
};

/// The device dropped off the bus (CL_DEVICE_NOT_AVAILABLE). Every later
/// command targeting it fails the same way until configureSystem().
class DeviceLost : public ClError {
public:
  DeviceLost(std::uint32_t deviceIndex, const std::string& what)
      : ClError(Status::DeviceNotAvailable, deviceIndex, what) {}
};

/// Record of one fired fault — the reproducibility log entry.
struct Fault {
  FaultSite site = FaultSite::Alloc;
  bool deviceLost = false;    // rule carried '=lost'
  std::uint64_t siteCall = 0; // per-site call index that fired (1-based)
  std::uint32_t device = kNoFaultDevice;
  std::string label;

  friend bool operator==(const Fault& a, const Fault& b) {
    return a.site == b.site && a.deviceLost == b.deviceLost &&
           a.siteCall == b.siteCall && a.device == b.device &&
           a.label == b.label;
  }
};

/// The process-wide fault plan. Disabled (the default) costs one relaxed
/// atomic load per hook — the same discipline as trace::Recorder.
class FaultInjector {
public:
  static FaultInjector& instance();

  /// True when a plan is armed; hooks skip everything else otherwise.
  static bool enabled() noexcept {
    return instance().armed_.load(std::memory_order_relaxed);
  }

  /// Parses and arms `plan` with `seed`; an empty plan disarms. Resets
  /// all call counters, the PRNG, and the fired-fault log, so equal
  /// (plan, seed, call sequence) triples replay byte-identically.
  /// Throws common::InvalidArgument on a malformed plan string.
  void configure(const std::string& plan, std::uint64_t seed = 0);

  /// configure() from SKELCL_FAULT_PLAN, with seed 0. No-op when
  /// SKELCL_FAULT_PLAN is unset or empty (a programmatic configuration
  /// stays in force).
  void configureFromEnv();

  /// Disarms and clears counters and the log.
  void reset();

  /// Consulted by each hook site. Counts the call, evaluates the plan,
  /// and returns the fault to raise, if any. Never throws.
  std::optional<Fault> check(FaultSite site, std::string_view label,
                             std::uint32_t device = kNoFaultDevice);

  /// Every fault fired since the last configure()/reset(), in order.
  std::vector<Fault> firedLog() const;

  /// Total calls seen at `site` since the last configure()/reset().
  std::uint64_t siteCalls(FaultSite site) const;

private:
  struct Rule {
    bool sites[kFaultSiteCount] = {false, false, false, false, false, false};
    std::string pattern;        // empty = matches any label
    std::uint64_t nthCall = 0;  // fire on the N-th matching call; 0 = off
    double probability = -1.0;  // fire with this probability; < 0 = off
    bool always = false;        // '*' trigger
    bool lost = false;          // '=lost' effect
    std::uint64_t matched = 0;  // matching calls seen so far
  };

  FaultInjector() = default;

  static Rule parseRule(const std::string& text);

  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  std::vector<Rule> rules_;
  common::Xoshiro256 rng_;
  std::uint64_t calls_[kFaultSiteCount] = {0, 0, 0, 0, 0, 0};
  std::vector<Fault> fired_;
};

} // namespace ocl
