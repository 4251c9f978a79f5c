// Shared pieces of the benchmark driver: the per-pass measurement record,
// the wall timers the workloads wrap around their calls into the
// library's public API, and the interface every workload implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "skelcl/skelcl.h"

namespace perfbench {

/// Host wall seconds since `start` on the steady clock.
inline double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Wall time the benchmark measured around its own calls into public
/// functions: skeleton operator() (the lazy DAG build), the consumption
/// points Vector::hostData / Scalar::getValue, Session::submit and
/// JobServer::pump.
struct Timers {
  std::uint64_t calls = 0;
  double callS = 0;
  double consumeS = 0;
  std::uint64_t submits = 0;
  double submitS = 0;
  double pumpS = 0;
};

/// Service-layer counters summed over the job servers of one pass.
struct ServiceCounts {
  std::uint64_t batches = 0;
  std::uint64_t coalescedJobs = 0;
  std::uint64_t maxBatch = 0;
  std::uint64_t queueWaitNs = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
};

/// Everything one measured pass over the workload's inputs produced.
/// The workload fills the operation counts, per-operation virtual
/// latencies and outputs; the driver fills the clocks around it.
struct Pass {
  int index = 0;      // distinguishes passes (fresh user functions per pass)
  Timers timers;
  ServiceCounts service;
  std::uint64_t attempted = 0; // operations: frames, reconstructions, jobs
  std::uint64_t failed = 0;    // threw, rejected, or wrong output
  /// Virtual latency of each operation (osem: of each subset), in ns.
  std::vector<std::uint64_t> latencyNs;
  /// Operations per virtual second at full offered load (service: the
  /// all-at-once pass; batch workloads: operations back to back).
  double capacityOpsPerS = 0;
};

/// Calls `f` (a skeleton invocation) and books its wall time.
template <typename F> decltype(auto) timedCall(Timers& timers, F&& f) {
  struct Booking {
    Timers& timers;
    std::chrono::steady_clock::time_point start;
    ~Booking() {
      timers.callS += secondsSince(start);
      ++timers.calls;
    }
  } booking{timers, std::chrono::steady_clock::now()};
  return f();
}

/// Reads a vector's host data (forcing evaluation, dispatch, VM work and
/// download) and books the wall time of the consumption point.
template <typename T>
std::vector<T> timedHostData(Timers& timers, const skelcl::Vector<T>& v) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<T>& data = v.hostData();
  timers.consumeS += secondsSince(start);
  return data;
}

template <typename T>
T timedValue(Timers& timers, const skelcl::Scalar<T>& s) {
  const auto start = std::chrono::steady_clock::now();
  T value = s.getValue();
  timers.consumeS += secondsSince(start);
  return value;
}

/// One benchmark workload. The driver constructs it after a fresh
/// runtime init, then calls, in order: setup() (timed as set-up),
/// computeOracles() and warmUp() (untimed), and run()+check() once per
/// pass. Only run() lies inside the measured region.
class Workload {
public:
  virtual ~Workload() = default;

  /// Generates inputs and builds every program the workload uses.
  virtual void setup() = 0;
  /// Host reference results; never inside a timed region.
  virtual void computeOracles() = 0;
  /// A short untimed stretch of the workload's own work, so the
  /// measured region starts with warm host caches and clocks.
  virtual void warmUp() = 0;
  /// The measured work. Records outputs for check().
  virtual void run(Pass& pass) = 0;
  /// Compares the outputs run() recorded with the oracles and counts
  /// every mismatch into pass.failed.
  virtual void check(Pass& pass) = 0;
};

/// `passSeconds` sizes one measured pass (the work a 4-core host does in
/// about that time); the same value always gives the same work.
std::unique_ptr<Workload> makeMandelbrot(std::uint64_t seed,
                                         double passSeconds);
std::unique_ptr<Workload> makeOsem(std::uint64_t seed, double passSeconds);
std::unique_ptr<Workload> makeServiceMix(std::uint64_t seed,
                                         double passSeconds);

} // namespace perfbench
