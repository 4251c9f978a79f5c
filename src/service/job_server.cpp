#include "service/service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "ocl/ocl.h"
#include "skelcl/detail/scheduler.h"
#include "trace/recorder.h"

namespace skelcl::service {

namespace {

constexpr std::size_t kNone = ~std::size_t(0);

/// Charges `stats` the kernel cycles and DMA bytes the platform's devices
/// retire while the guard lives. The dispatcher enqueues every command
/// synchronously, so all of them belong to the job whose phase runs.
class ChargeScope {
public:
  explicit ChargeScope(JobStats& stats)
      : stats_(stats), devices_(ocl::getPlatforms().front().devices()),
        before_(retired()) {}
  ~ChargeScope() {
    const Retired after = retired();
    stats_.deviceCycles += after.cycles - before_.cycles;
    stats_.bytesMoved += after.bytes - before_.bytes;
  }
  ChargeScope(const ChargeScope&) = delete;
  ChargeScope& operator=(const ChargeScope&) = delete;

private:
  struct Retired {
    std::uint64_t cycles = 0;
    std::uint64_t bytes = 0;
  };
  Retired retired() const {
    Retired sum;
    for (const ocl::Device& device : devices_) {
      sum.cycles += device.state().kernelCycles();
      sum.bytes += device.state().dmaBytes();
    }
    return sum;
  }

  JobStats& stats_;
  std::vector<ocl::Device> devices_;
  Retired before_;
};

/// Runs one phase of a job, then the scheduler's drain, even when the
/// phase threw: a call the phase deferred and kept alive is dispatched
/// inside this job's charge, not left for the next job's drain. Rethrows
/// the phase's error.
template <typename Phase> void runThenDrain(const Phase& phase) {
  std::exception_ptr error;
  try {
    phase();
  } catch (...) {
    error = std::current_exception();
  }
  detail::Scheduler::instance().drain(nullptr);
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

} // namespace

Policy policyFromString(const std::string& name) {
  if (name == "fifo") {
    return Policy::Fifo;
  }
  if (name == "fair" || name == "fair-share" || name == "fairshare") {
    return Policy::FairShare;
  }
  if (name == "priority") {
    return Policy::Priority;
  }
  throw common::InvalidArgument(
      "unknown service policy \"" + name +
      "\" (expected fifo, fair, or priority)");
}

const char* policyName(Policy policy) noexcept {
  switch (policy) {
    case Policy::Fifo: return "fifo";
    case Policy::FairShare: return "fair";
    case Policy::Priority: return "priority";
  }
  return "?";
}

ServiceOverload::ServiceOverload(const std::string& tenant,
                                 std::size_t queued, std::size_t cap)
    : common::Error("service overload: tenant \"" + tenant + "\" has " +
                    std::to_string(queued) + " job(s) queued (cap " +
                    std::to_string(cap) + "); retry after the backlog "
                    "drains"),
      tenant_(tenant), queued_(queued), cap_(cap) {}

// --- LatencyHistogram ----------------------------------------------------

std::size_t LatencyHistogram::bucketOf(std::uint64_t ns) {
  if (ns < kSubBuckets) {
    return std::size_t(ns);
  }
  // Octave e >= 3 holds [2^e, 2^(e+1)) in kSubBuckets linear steps.
  const int e = std::bit_width(ns) - 1;
  const std::size_t sub = std::size_t(ns >> (e - 3)) & (kSubBuckets - 1);
  return kSubBuckets * std::size_t(e - 2) + sub;
}

std::uint64_t LatencyHistogram::bucketCeil(std::uint64_t ns) {
  if (ns < kSubBuckets) {
    return ns;
  }
  const int e = std::bit_width(ns) - 1;
  const std::uint64_t step = std::uint64_t(1) << (e - 3);
  return (ns & ~(step - 1)) + (step - 1);
}

void LatencyHistogram::record(std::uint64_t ns) {
  ++counts_[bucketOf(ns)];
  ++count_;
  max_ = std::max(max_, ns);
}

std::uint64_t LatencyHistogram::quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const auto rank = std::max<std::uint64_t>(
      1, std::uint64_t(std::ceil(q * double(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      // The bucket's largest value: its lowest one plus its width - 1.
      const std::uint64_t low =
          b < kSubBuckets
              ? b
              : (kSubBuckets + b % kSubBuckets) << (b / kSubBuckets - 1);
      return std::min(max_, bucketCeil(low));
    }
  }
  return max_;
}

// --- JobHandle -----------------------------------------------------------

void JobHandle::wait() const {
  COMMON_EXPECTS(state_ != nullptr, "wait on an empty JobHandle");
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
}

bool JobHandle::done() const {
  COMMON_EXPECTS(state_ != nullptr, "done on an empty JobHandle");
  std::lock_guard lock(state_->mutex);
  return state_->done;
}

bool JobHandle::failed() const {
  COMMON_EXPECTS(state_ != nullptr, "failed on an empty JobHandle");
  std::lock_guard lock(state_->mutex);
  return state_->error != nullptr;
}

void JobHandle::rethrow() const {
  COMMON_EXPECTS(state_ != nullptr, "rethrow on an empty JobHandle");
  std::exception_ptr error;
  {
    std::lock_guard lock(state_->mutex);
    error = state_->error;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

JobStats JobHandle::stats() const {
  COMMON_EXPECTS(state_ != nullptr, "stats on an empty JobHandle");
  std::lock_guard lock(state_->mutex);
  return state_->stats;
}

// --- Session -------------------------------------------------------------

JobHandle Session::submit(Job job) {
  return server_->submit(index_, std::move(job));
}

// --- JobServer -----------------------------------------------------------

JobServer::JobServer(ServiceConfig config) : config_(config) {
  COMMON_EXPECTS(config_.queueCap >= 1, "queueCap must be >= 1");
  COMMON_EXPECTS(config_.batchLimit >= 1, "batchLimit must be >= 1");
}

JobServer::~JobServer() {
  try {
    stop();
  } catch (...) { // NOLINT(bugprone-empty-catch)
  }
}

Session& JobServer::openSession(const std::string& tenant, double weight,
                                int priority) {
  COMMON_EXPECTS(weight > 0.0, "session weight must be > 0");
  std::lock_guard lock(lock_);
  auto row = std::make_unique<Tenant>();
  row->session.reset(
      new Session(this, tenants_.size(), tenant, weight, priority));
  tenants_.push_back(std::move(row));
  return *tenants_.back()->session;
}

JobHandle JobServer::submit(std::size_t tenantIndex, Job job) {
  COMMON_EXPECTS(job.work != nullptr, "job without a work() callback");
  std::unique_lock lock(lock_);
  Tenant& tenant = *tenants_[tenantIndex];
  if (tenant.queue.size() >= config_.queueCap) {
    ++tenant.rejected;
    throw ServiceOverload(tenant.session->tenant(), tenant.queue.size(),
                          config_.queueCap);
  }
  PendingJob pending;
  pending.state = std::make_shared<detail_service::JobState>();
  const std::uint64_t submitNs = ocl::hostTimeNs();
  pending.state->stats.submitNs = submitNs;
  pending.state->stats.readyNs = std::max(submitNs, job.arrivalNs);
  pending.readyNs = pending.state->stats.readyNs;
  pending.job = std::move(job);
  pending.seq = nextSeq_++;
  pending.owner = &tenant;
  ++tenant.submitted;
  ++totalPending_;
  JobHandle handle(pending.state);
  tenant.queue.push_back(std::move(pending));
  lock.unlock();
  workCv_.notify_all();
  return handle;
}

bool JobServer::eligible(const Tenant& tenant, bool honorArrivals,
                         std::uint64_t now) const {
  if (tenant.queue.empty()) {
    return false;
  }
  return !honorArrivals || tenant.queue.front().readyNs <= now;
}

std::size_t JobServer::pickTenant(bool honorArrivals,
                                  std::uint64_t now) const {
  std::size_t best = kNone;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const Tenant& tenant = *tenants_[t];
    if (!eligible(tenant, honorArrivals, now)) {
      continue;
    }
    if (best == kNone) {
      best = t;
      continue;
    }
    const Tenant& leader = *tenants_[best];
    const std::uint64_t seq = tenant.queue.front().seq;
    const std::uint64_t leaderSeq = leader.queue.front().seq;
    switch (config_.policy) {
      case Policy::Fifo:
        if (seq < leaderSeq) {
          best = t;
        }
        break;
      case Policy::FairShare:
        // Least accumulated weighted device time first; submission
        // order breaks ties deterministically.
        if (tenant.vruntime < leader.vruntime ||
            (tenant.vruntime == leader.vruntime && seq < leaderSeq)) {
          best = t;
        }
        break;
      case Policy::Priority:
        if (tenant.session->priority() > leader.session->priority() ||
            (tenant.session->priority() == leader.session->priority() &&
             seq < leaderSeq)) {
          best = t;
        }
        break;
    }
  }
  return best;
}

void JobServer::startJob(PendingJob& job) {
  JobStats& stats = job.state->stats;
  stats.dispatchNs = ocl::hostTimeNs();
  try {
    ChargeScope charge(stats);
    // The dispatcher owns the task-graph registry while the job runs;
    // this throws if another thread still has pending non-service jobs,
    // and that error fails this job instead of crashing the dispatcher.
    detail::Scheduler::instance().adoptCallingThread();
    // Phase 1 — register: the skeleton calls build their lazy DAGs
    // (concrete inputs upload here) and file their deferred calls with
    // the registry. Phase 2 — dispatch: the drain enqueues them, then
    // the registered roots are forced. Nothing here blocks, so the next
    // job's commands queue behind these on the engines, not behind this
    // job's reads.
    JobContext ctx;
    runThenDrain([&] { job.job.work(ctx); });
    job.roots = std::move(ctx.roots_);
    for (const auto& root : job.roots) {
      root->forcePending();
    }
  } catch (...) {
    job.error = std::current_exception();
    for (const auto& root : job.roots) {
      root->poisonPending(job.error);
    }
  }
  // Fair share charges a job when its kernels are enqueued, so the jobs
  // picked while it is in flight already see its cycles.
  std::lock_guard lock(lock_);
  job.owner->vruntime +=
      double(stats.deviceCycles) / job.owner->session->weight();
}

void JobServer::finishOldestJob() {
  PendingJob& job = window_.front();
  JobStats& stats = job.state->stats;
  const std::uint64_t enqueuedCycles = stats.deviceCycles;
  // Phase 3 — consume: the blocking reads.
  if (job.error == nullptr && job.job.consume != nullptr) {
    try {
      ChargeScope charge(stats);
      runThenDrain(job.job.consume);
    } catch (...) {
      job.error = std::current_exception();
    }
  }
  stats.completeNs = ocl::hostTimeNs();
  if (trace::Recorder::enabled()) {
    auto& recorder = trace::Recorder::instance();
    const std::string& name = job.owner->session->tenant();
    recorder.recordHostSpan(trace::HostKind::TenantJob, name,
                            trace::kNoDevice, stats.dispatchNs,
                            stats.completeNs, stats.queueWaitNs(), job.slot);
    if (stats.deviceCycles > 0) {
      recorder.bumpCounter("tenant." + name + ".cycles", trace::kNoDevice,
                           trace::now(), stats.deviceCycles);
    }
    if (stats.bytesMoved > 0) {
      recorder.bumpCounter("tenant." + name + ".bytes", trace::kNoDevice,
                           trace::now(), stats.bytesMoved);
    }
  }

  {
    std::lock_guard lock(lock_);
    ++serverStats_.jobsExecuted;
    Tenant& tenant = *job.owner;
    ++tenant.completed;
    if (job.error != nullptr) {
      ++tenant.failed;
    }
    tenant.deviceCycles += stats.deviceCycles;
    tenant.bytesMoved += stats.bytesMoved;
    tenant.queueWaitNs += stats.queueWaitNs();
    tenant.vruntime += double(stats.deviceCycles - enqueuedCycles) /
                       tenant.session->weight();
    tenant.latency.record(stats.latencyNs());
  }

  // Publish completion last, so a woken waiter sees consistent server
  // accounting.
  PendingJob done = std::move(job);
  window_.pop_front();
  {
    std::lock_guard lock(done.state->mutex);
    done.state->done = true;
    // The state's error, written under its mutex, is what handles read.
    done.state->error = done.error;
  }
  done.state->cv.notify_all();
}

void JobServer::serve(std::unique_lock<std::mutex>& lock,
                      bool honorArrivals) {
  const std::size_t limit = config_.batching ? config_.batchLimit : 1;
  std::uint64_t busyJobs = 0; // jobs started in the current busy period
  while (true) {
    const std::uint64_t now = honorArrivals ? ocl::hostTimeNs() : 0;
    const std::size_t next =
        window_.size() < limit ? pickTenant(honorArrivals, now) : kNone;
    if (next != kNone) {
      Tenant& tenant = *tenants_[next];
      PendingJob job = std::move(tenant.queue.front());
      tenant.queue.pop_front();
      --totalPending_;
      busyJobs = window_.empty() ? 1 : busyJobs + 1;
      if (busyJobs == 1) {
        ++serverStats_.batches;
      }
      // A job joining a busy period counts, and so does the one that
      // opened it.
      if (busyJobs == 2) {
        serverStats_.coalescedJobs += 2;
      } else if (busyJobs > 2) {
        ++serverStats_.coalescedJobs;
      }
      serverStats_.maxBatch =
          std::max<std::uint64_t>(serverStats_.maxBatch, window_.size() + 1);
      // The lowest free slot, so overlapping jobs get distinct lanes.
      for (job.slot = 1;; ++job.slot) {
        if (std::none_of(window_.begin(), window_.end(),
                         [&](const PendingJob& other) {
                           return other.slot == job.slot;
                         })) {
          break;
        }
      }
      lock.unlock();
      startJob(job);
      window_.push_back(std::move(job));
      lock.lock();
      continue;
    }
    // Event-driven simulation: everything queued arrives in the future.
    // A job arriving while the window has room and before the oldest
    // job's device work ends is dispatched at its arrival, not after
    // that job's consume.
    const bool arrivalFirst =
        honorArrivals && totalPending_ > 0 &&
        (window_.empty() ||
         (window_.size() < limit && nextArrivalNs() < oldestJobEndNs()));
    if (!window_.empty() && !arrivalFirst) {
      lock.unlock();
      finishOldestJob();
      lock.lock();
      continue;
    }
    if (!arrivalFirst) {
      return;
    }
    ocl::syncHostTimeToNs(nextArrivalNs());
  }
}

std::uint64_t JobServer::nextArrivalNs() const {
  std::uint64_t minReadyNs = std::numeric_limits<std::uint64_t>::max();
  for (const auto& row : tenants_) {
    if (!row->queue.empty()) {
      minReadyNs = std::min(minReadyNs, row->queue.front().readyNs);
    }
  }
  return minReadyNs;
}

std::uint64_t JobServer::oldestJobEndNs() const {
  std::uint64_t endNs = 0;
  for (const auto& root : window_.front().roots) {
    for (const detail::Chunk& chunk : root->chunks()) {
      if (chunk.ready.valid()) {
        endNs = std::max(endNs, chunk.ready.endNs());
      }
    }
  }
  return endNs;
}

void JobServer::pump() {
  std::unique_lock lock(lock_);
  COMMON_EXPECTS(!running_,
                 "JobServer::pump while the dispatcher thread runs");
  serve(lock, /*honorArrivals=*/true);
}

void JobServer::dispatcherLoop() {
  std::unique_lock lock(lock_);
  while (true) {
    workCv_.wait(lock, [&] { return stopRequested_ || totalPending_ > 0; });
    if (totalPending_ == 0) {
      return; // stop requested and nothing left: the window is empty
    }
    // The serving mode treats every queued job as arrived (clients are
    // the arrival process); arrivalNs is a pump()-mode knob.
    serve(lock, /*honorArrivals=*/false);
  }
}

void JobServer::start() {
  std::lock_guard lock(lock_);
  COMMON_EXPECTS(!running_, "JobServer::start: already running");
  stopRequested_ = false;
  running_ = true;
  dispatcher_ = std::thread([this] { dispatcherLoop(); });
}

void JobServer::stop() {
  {
    std::lock_guard lock(lock_);
    if (!running_) {
      return;
    }
    stopRequested_ = true;
  }
  workCv_.notify_all();
  dispatcher_.join();
  std::lock_guard lock(lock_);
  running_ = false;
  stopRequested_ = false;
}

std::vector<JobServer::TenantStats> JobServer::tenantStats() const {
  std::lock_guard lock(lock_);
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    TenantStats row;
    row.tenant = tenant->session->tenant();
    row.weight = tenant->session->weight();
    row.priority = tenant->session->priority();
    row.submitted = tenant->submitted;
    row.completed = tenant->completed;
    row.failed = tenant->failed;
    row.rejected = tenant->rejected;
    row.vruntime = tenant->vruntime;
    row.deviceCycles = tenant->deviceCycles;
    row.bytesMoved = tenant->bytesMoved;
    row.queueWaitNs = tenant->queueWaitNs;
    row.latencyP50Ns = tenant->latency.quantile(0.50);
    row.latencyP99Ns = tenant->latency.quantile(0.99);
    out.push_back(std::move(row));
  }
  return out;
}

JobServer::ServerStats JobServer::serverStats() const {
  std::lock_guard lock(lock_);
  return serverStats_;
}

} // namespace skelcl::service
