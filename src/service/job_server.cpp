#include "service/service.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "ocl/ocl.h"
#include "skelcl/detail/scheduler.h"
#include "trace/recorder.h"

namespace skelcl::service {

namespace {
constexpr std::size_t kNone = ~std::size_t(0);
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

std::vector<JobServer::PendingJob>
JobServer::pickBatch(bool honorArrivals, std::uint64_t now,
                     std::uint64_t* minReadyNs) {
  *minReadyNs = std::numeric_limits<std::uint64_t>::max();
  const std::size_t victim = pickTenant(honorArrivals, now);
  std::vector<PendingJob> batch;
  if (victim == kNone) {
    for (const auto& tenant : tenants_) {
      if (!tenant->queue.empty()) {
        *minReadyNs =
            std::min(*minReadyNs, tenant->queue.front().readyNs);
      }
    }
    return batch;
  }
  batch.push_back(std::move(tenants_[victim]->queue.front()));
  tenants_[victim]->queue.pop_front();
  // Copy, not a reference: push_back below may reallocate the batch.
  const std::string key = batch.front().job.programKey;
  if (config_.batching && !key.empty()) {
    // Coalesce same-program jobs across tenants, taking only queue
    // fronts (per-session FIFO is preserved), round-robin from the
    // victim so no tenant monopolizes the batch.
    bool took = true;
    while (batch.size() < config_.batchLimit && took) {
      took = false;
      for (std::size_t k = 0; k < tenants_.size(); ++k) {
        Tenant& tenant = *tenants_[(victim + k) % tenants_.size()];
        while (batch.size() < config_.batchLimit &&
               eligible(tenant, honorArrivals, now) &&
               tenant.queue.front().job.programKey == key) {
          batch.push_back(std::move(tenant.queue.front()));
          tenant.queue.pop_front();
          took = true;
        }
      }
    }
  }
  totalPending_ -= batch.size();
  return batch;
}

void JobServer::finishJob(PendingJob& job, std::exception_ptr error) {
  detail_service::JobState& state = *job.state;
  {
    std::lock_guard lock(state.mutex);
    state.error = std::move(error);
    state.done = true;
  }
  state.cv.notify_all();
}

void JobServer::executeBatch(std::vector<PendingJob>& batch) {
  // Runs `fn` and charges the job what the platform's devices retired
  // meanwhile: every command of the phase is the job's own, and batch
  // phases of different jobs interleave, so per-job numbers are deltas.
  const std::vector<ocl::Device> devices =
      ocl::getPlatforms().front().devices();
  auto totals = [&] {
    std::pair<std::uint64_t, std::uint64_t> cyclesAndBytes{0, 0};
    for (const ocl::Device& device : devices) {
      cyclesAndBytes.first += device.state().kernelCycles();
      cyclesAndBytes.second += device.state().dmaBytes();
    }
    return cyclesAndBytes;
  };
  auto charged = [&](PendingJob& job, auto&& fn) {
    const auto before = totals();
    const auto settle = [&] {
      const auto after = totals();
      job.state->stats.deviceCycles += after.first - before.first;
      job.state->stats.bytesMoved += after.second - before.second;
    };
    try {
      fn();
    } catch (...) {
      settle();
      throw;
    }
    settle();
  };
  auto fail = [](PendingJob& job) {
    job.failed = true;
    job.error = std::current_exception();
  };

  // The scope adopts this thread as the task-graph registry owner and
  // suppresses consumption-point drains: the server forces each job's
  // roots itself, in batch order, so the enqueue sequence — and the
  // tenant each command is charged to — is exact. Construction throws
  // if another thread still has pending non-service jobs; that error
  // fails the whole batch instead of crashing the dispatcher.
  std::unique_ptr<detail::Scheduler::ExternalDispatchScope> dispatchScope;
  try {
    dispatchScope =
        std::make_unique<detail::Scheduler::ExternalDispatchScope>();
  } catch (...) {
    for (PendingJob& job : batch) {
      fail(job);
    }
  }

  if (dispatchScope != nullptr) {
    // Phase 1 — register: every job's skeleton calls build their lazy
    // DAGs (concrete inputs upload here, under the tenant's scope).
    for (PendingJob& job : batch) {
      job.state->stats.dispatchNs = ocl::hostTimeNs();
      try {
        charged(job, [&] {
          JobContext ctx;
          job.job.work(ctx);
          job.roots = std::move(ctx.roots_);
        });
      } catch (...) {
        fail(job);
      }
    }
    // Phase 2 — dispatch: force each job's roots in batch order. All
    // jobs' commands sit in the per-device queues before any blocking
    // wait, so independent jobs pipeline exactly as a scheduler drain
    // would — but with per-tenant attribution.
    for (PendingJob& job : batch) {
      if (job.failed) {
        continue;
      }
      try {
        charged(job, [&] {
          for (const auto& root : job.roots) {
            root->forcePending();
          }
        });
      } catch (...) {
        fail(job);
        for (const auto& root : job.roots) {
          root->poisonPending(job.error);
        }
      }
    }
    // Phase 3 — consume: the blocking reads, in batch order.
    for (PendingJob& job : batch) {
      if (!job.failed && job.job.consume != nullptr) {
        try {
          charged(job, [&] { job.job.consume(); });
        } catch (...) {
          fail(job);
        }
      }
    }
  }

  for (PendingJob& job : batch) {
    JobStats& stats = job.state->stats;
    stats.completeNs = ocl::hostTimeNs();
    if (stats.dispatchNs == 0) {
      stats.dispatchNs = stats.completeNs; // batch failed before phase 1
    }
    if (trace::Recorder::enabled()) {
      auto& recorder = trace::Recorder::instance();
      const std::string& name = job.owner->session->tenant();
      recorder.recordHostSpan(trace::HostKind::TenantJob, name,
                              trace::kNoDevice, stats.dispatchNs,
                              stats.completeNs, stats.queueWaitNs());
      if (stats.deviceCycles > 0) {
        recorder.bumpCounter("tenant." + name + ".cycles",
                             trace::kNoDevice, trace::now(),
                             stats.deviceCycles);
      }
      if (stats.bytesMoved > 0) {
        recorder.bumpCounter("tenant." + name + ".bytes", trace::kNoDevice,
                             trace::now(), stats.bytesMoved);
      }
    }
  }

  {
    std::lock_guard lock(lock_);
    ++serverStats_.batches;
    serverStats_.jobsExecuted += batch.size();
    serverStats_.maxBatch =
        std::max<std::uint64_t>(serverStats_.maxBatch, batch.size());
    if (batch.size() > 1) {
      serverStats_.coalescedJobs += batch.size();
    }
    for (PendingJob& job : batch) {
      const JobStats& stats = job.state->stats;
      Tenant& tenant = *job.owner;
      ++tenant.completed;
      if (job.failed) {
        ++tenant.failed;
      }
      tenant.deviceCycles += stats.deviceCycles;
      tenant.bytesMoved += stats.bytesMoved;
      tenant.queueWaitNs += stats.queueWaitNs();
      tenant.vruntime +=
          double(stats.deviceCycles) / tenant.session->weight();
    }
  }

  // Publish completion last, so a woken waiter sees consistent server
  // accounting.
  for (PendingJob& job : batch) {
    finishJob(job, job.error);
  }
}

void JobServer::pump() {
  std::unique_lock lock(lock_);
  COMMON_EXPECTS(!running_,
                 "JobServer::pump while the dispatcher thread runs");
  while (totalPending_ > 0) {
    std::uint64_t minReadyNs = 0;
    std::vector<PendingJob> batch =
        pickBatch(/*honorArrivals=*/true, ocl::hostTimeNs(), &minReadyNs);
    if (batch.empty()) {
      if (minReadyNs == std::numeric_limits<std::uint64_t>::max()) {
        break; // defensive: nothing queued after all
      }
      // Event-driven simulation: everything queued arrives in the
      // future, so idle the virtual host up to the next arrival.
      ocl::syncHostTimeToNs(minReadyNs);
      continue;
    }
    lock.unlock();
    executeBatch(batch);
    lock.lock();
  }
}

void JobServer::dispatcherLoop() {
  std::unique_lock lock(lock_);
  while (true) {
    workCv_.wait(lock, [&] { return stopRequested_ || totalPending_ > 0; });
    if (totalPending_ == 0) {
      if (stopRequested_) {
        return;
      }
      continue;
    }
    std::uint64_t minReadyNs = 0;
    // The serving mode treats every queued job as arrived (clients are
    // the arrival process); arrivalNs is a pump()-mode knob.
    std::vector<PendingJob> batch =
        pickBatch(/*honorArrivals=*/false, 0, &minReadyNs);
    if (batch.empty()) {
      continue;
    }
    lock.unlock();
    executeBatch(batch);
    lock.lock();
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
    out.push_back(std::move(row));
  }
  return out;
}

JobServer::ServerStats JobServer::serverStats() const {
  std::lock_guard lock(lock_);
  return serverStats_;
}

} // namespace skelcl::service
