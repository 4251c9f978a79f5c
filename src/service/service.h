// Multi-tenant skeleton job service (ROADMAP: "a job-server that
// multiplexes many tenants onto the shared simulated devices").
//
// The paper's SkelCL is a library one main() links against; this layer
// turns the runtime into an in-process server. A JobServer owns the
// SkelCL runtime and accepts skeleton *jobs* from N client Sessions —
// one session per tenant, submissions allowed from any thread. Jobs
// land in per-tenant bounded queues (admission control: a full queue
// rejects with a typed ServiceOverload instead of letting one tenant
// buffer unbounded work), and a pluggable policy picks the next job
// (FIFO / weighted fair-share by accumulated device-cycles / strict
// priority), whatever program it runs.
//
// Execution model: the simulated devices share one virtual clock, so
// job execution is funneled through a single dispatcher — either the
// server's own thread (start()/stop()) or the caller's (pump(), the
// deterministic mode tests and benches use). Client threads only
// enqueue job descriptors; every skeleton call of every tenant runs on
// the dispatcher, which satisfies the task-graph scheduler's ownership
// contract (scheduler.h). The dispatcher keeps a *window* of up to
// batchLimit jobs in flight: it starts a job (its skeleton calls, then
// the scheduler's drain() of every call they deferred) without waiting
// for the jobs before it, and consumes the oldest job (its blocking
// reads) only when the window is full or no job is eligible. Jobs on different
// devices therefore overlap, as one SkelCL program's do. A job is
// charged the kernel cycles and DMA bytes the devices retire while its
// phases run (deltas of the ocl::DeviceState totals; every command is
// enqueued synchronously on the dispatcher), so attribution is exact;
// the tenant rows sum their jobs' charges and feed fair-share
// scheduling, tenantStats(), and the skeltrace tenant report
// (HostKind::TenantJob spans, one trace lane per window slot, plus
// "tenant.<name>.cycles/.bytes" counters).
//
// Failure isolation: a job that throws — including injected
// DeviceLost / AllocFailure faults — fails only its own JobHandle (and
// poisons its own output vectors); concurrent tenants' jobs keep their
// solo-run results bit-identically.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "skelcl/vector.h"

namespace skelcl::service {

/// How the dispatcher picks the next job among non-empty tenant queues.
enum class Policy : std::uint8_t {
  Fifo = 0,      // global submission order
  FairShare = 1, // min accumulated device-cycles / weight first
  Priority = 2,  // highest session priority first (job granularity)
};

/// Parses "fifo" | "fair" (also "fair-share"/"fairshare") | "priority".
/// Throws common::InvalidArgument on anything else.
Policy policyFromString(const std::string& name);
const char* policyName(Policy policy) noexcept;

struct ServiceConfig {
  Policy policy = Policy::Fifo;
  std::size_t queueCap = 64;  // pending jobs per tenant before overload
  std::size_t batchLimit = 8; // jobs in flight; 1 runs one at a time
  // Deprecated: false is batchLimit = 1. Only perfbench's service_mix
  // workload still sets it; delete it with the next change to perfbench.
  bool batching = true;
};

/// Admission-control rejection: the tenant's queue is full. Typed so
/// clients can distinguish backpressure (retry later) from job failure.
class ServiceOverload : public common::Error {
public:
  ServiceOverload(const std::string& tenant, std::size_t queued,
                  std::size_t cap);
  const std::string& tenant() const noexcept { return tenant_; }
  std::size_t queued() const noexcept { return queued_; }
  std::size_t cap() const noexcept { return cap_; }

private:
  std::string tenant_;
  std::size_t queued_;
  std::size_t cap_;
};

/// Handed to a job's work() callback; the job registers its result
/// vectors here so the server forces them and keeps them alive until
/// consume() runs. Deferred results the job does not register (a
/// Reduce's Scalar, say) are dispatched with the job all the same, by
/// the scheduler's drain; under SKELCL_ASYNC=0 there is no registry and
/// they evaluate when consume() reads them.
class JobContext {
public:
  template <typename T> void defer(const Vector<T>& result) {
    roots_.push_back(result.stateHandle());
  }

private:
  friend class JobServer;
  std::vector<std::shared_ptr<detail::VectorState>> roots_;
};

/// One unit of tenant work. work() makes the skeleton calls (they stay
/// lazy; register results via JobContext::defer) and consume() reads
/// the results (the blocking waits). Both run on the dispatcher.
/// `programKey` is a free-form label for the job's program; the server
/// no longer schedules by it. `arrivalNs` (pump mode only) keeps the
/// job ineligible until the virtual clock reaches it — the offered-load
/// knob of the saturation bench.
struct Job {
  std::string programKey;
  std::uint64_t arrivalNs = 0;
  std::function<void(JobContext&)> work;
  std::function<void()> consume;
};

/// Virtual-time accounting of one job, valid once the handle is done.
struct JobStats {
  std::uint64_t submitNs = 0;   // virtual time of Session::submit
  std::uint64_t readyNs = 0;    // max(submitNs, arrivalNs)
  std::uint64_t dispatchNs = 0; // dispatcher started the job
  std::uint64_t completeNs = 0; // results consumed (or failure recorded)
  std::uint64_t deviceCycles = 0;
  std::uint64_t bytesMoved = 0;

  std::uint64_t queueWaitNs() const noexcept {
    return dispatchNs > readyNs ? dispatchNs - readyNs : 0;
  }
  std::uint64_t latencyNs() const noexcept {
    return completeNs > readyNs ? completeNs - readyNs : 0;
  }
};

namespace detail_service {
struct JobState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  JobStats stats;
};
} // namespace detail_service

/// Client-side view of one submitted job.
class JobHandle {
public:
  JobHandle() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  /// Blocks until the job completed or failed (returns immediately in
  /// pump mode, where completion precedes the handle's use).
  void wait() const;
  bool done() const;
  bool failed() const;
  /// Rethrows the job's failure as its original typed exception; no-op
  /// when the job succeeded.
  void rethrow() const;
  JobStats stats() const;

private:
  friend class JobServer;
  explicit JobHandle(std::shared_ptr<detail_service::JobState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail_service::JobState> state_;
};

/// Fixed-size log-bucket histogram of virtual latencies: values below 8
/// ns have a bucket each, and each range [2^e, 2^(e+1)) from 8 up splits
/// into 8 linear buckets, so a quantile reads at most 12.5 % above the
/// sample it stands for, in constant memory however many jobs run.
class LatencyHistogram {
public:
  void record(std::uint64_t ns);
  std::uint64_t count() const noexcept { return count_; }
  /// Nearest-rank quantile `q` in (0, 1]: the upper bound of the bucket
  /// holding that sample, capped at the largest sample; 0 when empty.
  std::uint64_t quantile(double q) const;
  /// The upper bound of the bucket that holds `ns`.
  static std::uint64_t bucketCeil(std::uint64_t ns);

private:
  static constexpr std::size_t kSubBuckets = 8;
  static constexpr std::size_t kBuckets = kSubBuckets * 62;
  static std::size_t bucketOf(std::uint64_t ns);
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

class JobServer;

/// One tenant's connection. Obtained from JobServer::openSession;
/// submit() may be called from any thread (thread-per-client).
class Session {
public:
  const std::string& tenant() const noexcept { return tenant_; }
  double weight() const noexcept { return weight_; }
  int priority() const noexcept { return priority_; }

  /// Enqueues a job; throws ServiceOverload when the tenant's queue is
  /// at the configured cap (admission control). Jobs of one session
  /// execute in submission order regardless of policy.
  JobHandle submit(Job job);

private:
  friend class JobServer;
  Session(JobServer* server, std::size_t index, std::string tenant,
          double weight, int priority)
      : server_(server), index_(index), tenant_(std::move(tenant)),
        weight_(weight), priority_(priority) {}
  JobServer* server_;
  std::size_t index_;
  std::string tenant_;
  double weight_;
  int priority_;
};

class JobServer {
public:
  explicit JobServer(ServiceConfig config = ServiceConfig{});
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  const ServiceConfig& config() const noexcept { return config_; }

  /// Adds a tenant. `weight` scales fair-share (2.0 = entitled to twice
  /// the device-cycles of a 1.0 tenant); `priority` orders the Priority
  /// policy (higher first). Sessions stay valid for the server's life.
  Session& openSession(const std::string& tenant, double weight = 1.0,
                       int priority = 0);

  /// Starts the dispatcher thread (thread-per-client serving mode).
  void start();
  /// Drains every queued and in-flight job, then joins the dispatcher.
  /// Idempotent.
  void stop();

  /// Deterministic mode: runs queued jobs to completion on the calling
  /// thread, honoring Job::arrivalNs by advancing the virtual clock
  /// when all queues are waiting on future arrivals. Not allowed while
  /// the dispatcher thread runs.
  void pump();

  /// Per-tenant service + accounting totals since the server started.
  struct TenantStats {
    std::string tenant;
    double weight = 1.0;
    int priority = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0; // includes failed (a job ran)
    std::uint64_t failed = 0;
    std::uint64_t rejected = 0;  // ServiceOverload backpressure
    std::uint64_t deviceCycles = 0;
    std::uint64_t bytesMoved = 0;
    std::uint64_t queueWaitNs = 0;
    double vruntime = 0; // deviceCycles / weight, the fair-share key
    // Virtual latency (ready .. complete) quantiles of the completed
    // jobs, from the tenant's LatencyHistogram.
    std::uint64_t latencyP50Ns = 0;
    std::uint64_t latencyP99Ns = 0;
  };
  std::vector<TenantStats> tenantStats() const;

  /// What the dispatcher's window did. A busy period runs from the
  /// window's first job to the moment it is empty again.
  struct ServerStats {
    std::uint64_t batches = 0; // busy periods
    std::uint64_t jobsExecuted = 0;
    std::uint64_t maxBatch = 0;      // peak jobs in flight
    std::uint64_t coalescedJobs = 0; // jobs sharing a busy period
  };
  ServerStats serverStats() const;

private:
  friend class Session;

  struct Tenant;
  struct PendingJob {
    Job job;
    std::shared_ptr<detail_service::JobState> state;
    std::uint64_t seq = 0;
    std::uint64_t readyNs = 0;
    Tenant* owner = nullptr; // stable: tenants are heap-allocated
    std::uint32_t slot = 0;  // window slot 1..limit, the trace lane
    std::vector<std::shared_ptr<detail::VectorState>> roots;
    std::exception_ptr error;
  };
  struct Tenant {
    std::unique_ptr<Session> session;
    std::deque<PendingJob> queue;
    double vruntime = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t rejected = 0;
    // Sums of the tenant's finished jobs' JobStats.
    std::uint64_t deviceCycles = 0;
    std::uint64_t bytesMoved = 0;
    std::uint64_t queueWaitNs = 0;
    LatencyHistogram latency;
  };

  JobHandle submit(std::size_t tenantIndex, Job job);
  /// The tenant whose queue front runs next under the policy, or ~0
  /// when no front is eligible at `now`.
  std::size_t pickTenant(bool honorArrivals, std::uint64_t now) const;
  bool eligible(const Tenant& tenant, bool honorArrivals,
                std::uint64_t now) const;
  /// The window loop pump() and the dispatcher thread share: starts
  /// eligible jobs while the window has room, else consumes the oldest.
  /// Returns with lock_ held once no job is queued or in flight. With
  /// `honorArrivals` it idles the virtual clock to the next arrival when
  /// nothing else can run, or when the window has room and that arrival
  /// comes before the oldest job's device work ends (oldestJobEndNs).
  void serve(std::unique_lock<std::mutex>& lock, bool honorArrivals);
  /// When the earliest queued job arrives (max when none is queued).
  std::uint64_t nextArrivalNs() const;
  /// When the oldest job's device work ends: the latest ready event of
  /// its results' chunks (0 when it deferred no vector).
  std::uint64_t oldestJobEndNs() const;
  /// Phases 1 and 2 of a job: its work() registers the skeleton calls,
  /// then every command they deferred is enqueued.
  void startJob(PendingJob& job);
  /// Phase 3 of the oldest job in flight (its consume()), then its
  /// accounting and completion.
  void finishOldestJob();
  void dispatcherLoop();

  ServiceConfig config_;
  mutable std::mutex lock_;
  std::condition_variable workCv_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::uint64_t nextSeq_ = 0;
  std::size_t totalPending_ = 0;
  bool stopRequested_ = false;
  bool running_ = false;
  ServerStats serverStats_;
  // Jobs in flight, oldest first; only the dispatcher touches it.
  std::deque<PendingJob> window_;
  std::thread dispatcher_;
};

} // namespace skelcl::service
