#include "skelcl/detail/scheduler.h"

#include <string>
#include <unordered_set>
#include <utility>

#include "common/error.h"
#include "ocl/ocl.h"
#include "skelcl/detail/expr.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl::detail {

/// One job that survived the liveness filter: the pinned node, its
/// (still-alive) output state, and when the skeleton call deferred it.
struct Scheduler::LiveJob {
  std::shared_ptr<ExprNode> node;
  std::shared_ptr<VectorState> out;
  std::uint64_t registeredNs = 0;
};

namespace {

/// True when `target` lies inside the unevaluated part of `root`'s
/// subgraph — i.e. dispatching `root` would evaluate `target`.
bool subgraphContains(const ExprNode* root, const ExprNode* target,
                      std::unordered_set<const ExprNode*>& visited) {
  if (root == nullptr) {
    return false;
  }
  if (root == target) {
    return true;
  }
  if (root->evaluated || !visited.insert(root).second) {
    return false;
  }
  for (const ExprNode::Input& input : root->inputs) {
    if (subgraphContains(input.node.get(), target, visited)) {
      return true;
    }
  }
  return false;
}

} // namespace

Scheduler& Scheduler::instance() {
  static Scheduler scheduler;
  return scheduler;
}

void Scheduler::configure(bool asyncEnabled) {
  std::lock_guard lock(registryMutex_);
  asyncEnabled_ = asyncEnabled;
  jobs_.clear();
  hasJobs_.store(false, std::memory_order_relaxed);
  owner_ = std::this_thread::get_id();
}

void Scheduler::reset() {
  std::lock_guard lock(registryMutex_);
  jobs_.clear();
  hasJobs_.store(false, std::memory_order_relaxed);
}

void Scheduler::claimOwnershipLocked(const char* op) {
  const std::thread::id self = std::this_thread::get_id();
  if (jobs_.empty()) {
    owner_ = self; // sequential handoff: nothing of anyone else's pending
    return;
  }
  if (owner_ != self) {
    throw common::Error(
        std::string("Scheduler::") + op + ": called from a thread that "
        "does not own the job registry while " +
        std::to_string(jobs_.size()) + " job(s) from the owning thread "
        "are pending. Deferred jobs dispatch in registration order on "
        "the calling thread; external submitters must serialize through "
        "one thread (or adoptCallingThread() after the owner drained).");
  }
}

void Scheduler::noteDeferred(const std::shared_ptr<ExprNode>& node) {
  if (!asyncEnabled_ || draining_) {
    return;
  }
  std::lock_guard lock(registryMutex_);
  claimOwnershipLocked("noteDeferred");
  jobs_.push_back(PendingJob{node, ocl::hostTimeNs()});
  hasJobs_.store(true, std::memory_order_relaxed);
}

void Scheduler::adoptCallingThread() {
  std::lock_guard lock(registryMutex_);
  if (!jobs_.empty() && owner_ != std::this_thread::get_id()) {
    throw common::Error(
        "Scheduler::adoptCallingThread: another thread still has " +
        std::to_string(jobs_.size()) +
        " pending job(s); the owner must drain (or the results must be "
        "consumed) before ownership can move");
  }
  owner_ = std::this_thread::get_id();
}

std::vector<Scheduler::LiveJob> Scheduler::filterLive(
    const std::vector<PendingJob>& taken,
    const std::shared_ptr<ExprNode>& requested,
    std::vector<PendingJob>& kept) {
  std::vector<LiveJob> live;
  live.reserve(taken.size());
  for (const PendingJob& job : taken) {
    std::shared_ptr<ExprNode> node = job.node.lock();
    if (node == nullptr || node->evaluated || node->evaluating) {
      continue;
    }
    if (node->fanout > 0) {
      // A deferred parent reads this node: the parent's dispatch fuses
      // or forces it. If the parent dies unread instead, the node's own
      // consumption point still forces it — nothing is lost.
      continue;
    }
    if (requested != nullptr && node != requested) {
      std::unordered_set<const ExprNode*> visited;
      if (subgraphContains(node.get(), requested.get(), visited)) {
        // This job consumes the value being read right now: dispatching
        // it would speculatively run work the synchronous force defers
        // until the job's own consumption point. Keep it queued.
        kept.push_back(job);
        continue;
      }
    }
    std::shared_ptr<VectorState> out = node->output.lock();
    if (out == nullptr) {
      // The result died unread; the computation is dead code (the same
      // elimination the synchronous force applies).
      node->evaluated = true;
      continue;
    }
    live.push_back(LiveJob{std::move(node), std::move(out),
                           job.registeredNs});
  }
  return live;
}

void Scheduler::drain(const std::shared_ptr<ExprNode>& requested) {
  struct DrainGuard {
    bool& flag;
    ~DrainGuard() { flag = false; }
  };
  draining_ = true;
  DrainGuard guard{draining_};

  std::vector<PendingJob> taken;
  {
    std::lock_guard lock(registryMutex_);
    claimOwnershipLocked("drain");
    taken.swap(jobs_);
    hasJobs_.store(false, std::memory_order_relaxed);
  }

  std::vector<PendingJob> kept;
  const std::vector<LiveJob> live = filterLive(taken, requested, kept);
  if (!kept.empty()) {
    std::lock_guard lock(registryMutex_);
    // jobs_ emptied above and nothing registers during a drain, so the
    // prepend keeps registration order.
    jobs_.insert(jobs_.begin(), kept.begin(), kept.end());
    hasJobs_.store(true, std::memory_order_relaxed);
  }
  if (live.empty()) {
    return;
  }

  for (std::size_t i = 0; i < live.size(); ++i) {
    const LiveJob& job = live[i];
    const std::uint64_t dispatchNs = ocl::hostTimeNs();
    try {
      forceExprNode(job.node);
    } catch (...) {
      // Per-subgraph isolation: the error waits, as the original typed
      // exception, at this job's own consumption point; the remaining
      // jobs still dispatch.
      job.out->poisonPending(std::current_exception());
    }
    if (trace::Recorder::enabled()) {
      // Lane 1 + i: the highest lane of a trace is its largest drain.
      trace::Recorder::instance().recordHostSpan(
          trace::HostKind::Scheduler, "sched.job", trace::kNoDevice,
          job.registeredNs, ocl::hostTimeNs(), dispatchNs - job.registeredNs,
          std::uint32_t(1 + i));
    }
  }
}

} // namespace skelcl::detail
