// Asynchronous task-graph scheduler over the lazy expression DAG
// (ROADMAP: "concurrent evaluation of independent skeleton jobs").
//
// Every deferred skeleton call registers its root node here; the first
// true consumption point (a host read, Scalar::getValue, an explicit
// redistribution) then *drains* the registry: every outstanding
// independent job's commands are enqueued on the per-device command
// queues before the consumer issues its blocking wait. Two independent
// skeleton chains therefore pipeline on the simulated engines — the
// consumer of chain A no longer serializes chain B behind A's download.
// Jobs downstream of the value being consumed are NOT dispatched (they
// would speculatively evaluate work the synchronous force defers), so
// dependent chains keep their synchronous schedule exactly.
//
// Determinism contract (what the async differential suite asserts):
//  * jobs dispatch in registration order on the *calling* thread, so the
//    enqueue sequence — and with it the virtual-time schedule — is a
//    pure function of the program;
//  * a drain of exactly one job degenerates to the synchronous force:
//    single-job programs keep bit-identical outputs and virtual time
//    under SKELCL_ASYNC=0 and =1;
//  * each job builds the programs it needs inline, on the dispatching
//    thread, through Runtime::programFor (exactly as a synchronous force
//    does); builds are host work that never touches the virtual clock.
//
// Failure isolation: a job that throws during dispatch poisons its own
// output state (VectorState::poisonPending); the error resurfaces as
// the original typed exception at that job's consumption point while
// every other job's result stays intact.
//
// Thread-safety contract for external (cross-thread) submitters: the
// registry belongs to exactly one *owner thread* at a time — the thread
// running the skeleton program. Ownership transfers implicitly when a
// thread defers into an EMPTY registry (a sequential handoff, e.g. the
// job service's dispatcher picking up after init() ran on main), or
// explicitly via adoptCallingThread(). A thread that defers or drains
// while ANOTHER thread's jobs are pending violates the contract — jobs
// dispatch in registration order on the calling thread, so the violator
// would run the victim's jobs on the wrong thread — and gets a typed
// common::Error instead of a silent race. The registry itself is guarded
// by a mutex (the same discipline as Runtime::programFor) so the checks
// and the handoff are race-free. What the scheduler did is read from
// the trace: one `sched.job` span per dispatched job (trace::analyze
// counts them and their peak concurrency).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace skelcl::detail {

class ExprNode;

class Scheduler {
public:
  static Scheduler& instance();

  /// Applies one init() cycle's configuration (SKELCL_ASYNC) and clears
  /// any leftover registry.
  void configure(bool asyncEnabled);

  /// Drops every outstanding job without dispatching it (terminate():
  /// results that can no longer be read are dead code, exactly as under
  /// synchronous evaluation).
  void reset();

  /// Registers a freshly deferred root job. No-op when async is off.
  /// Throws common::Error when called from a thread other than the
  /// current owner while that owner's jobs are pending (see the
  /// thread-safety contract above); an empty registry hands ownership
  /// to the caller instead.
  void noteDeferred(const std::shared_ptr<ExprNode>& node);

  /// Makes the calling thread the registry owner. The handoff
  /// precondition is an empty registry (no other thread's jobs may be
  /// pending); a violation throws common::Error. The job service's
  /// dispatcher calls this before each job's work(), and drains the
  /// calls work() and consume() defer with drain(nullptr).
  void adoptCallingThread();

  /// Whether this init() cycle runs with the async scheduler at all.
  /// SKELCL_ASYNC=0 is the differential baseline: there is no registry,
  /// each deferred job evaluates at its own consumption point, and
  /// nothing else changes.
  bool asyncEnabled() const noexcept { return asyncEnabled_; }

  /// True when a top-of-stack consumption point should drain() first.
  /// Owner-thread state (draining_) plus a relaxed flag mirror of the
  /// registry, so the check stays one load on the hot path.
  bool shouldDrain() const noexcept {
    return asyncEnabled_ && !draining_ &&
           hasJobs_.load(std::memory_order_relaxed);
  }

  /// Dispatches outstanding root jobs in registration order: filters
  /// dead/absorbed entries, then enqueues each job's commands. Failures
  /// poison the failing job's output and dispatch continues. `requested`
  /// is the node the consumption point is about to force: a job whose
  /// subgraph contains it (other than the requested job itself) is a
  /// *downstream consumer* of the value being read — it stays queued
  /// rather than dispatching, so reading an intermediate of a dependent
  /// chain keeps exactly the synchronous schedule instead of
  /// speculatively evaluating the rest of the chain.
  void drain(const std::shared_ptr<ExprNode>& requested);

private:
  Scheduler() = default;

  struct PendingJob {
    std::weak_ptr<ExprNode> node;
    std::uint64_t registeredNs = 0; // virtual time of the skeleton call
  };
  struct LiveJob;

  /// drain()'s liveness filter over `taken`: returns the jobs that still
  /// need a dispatch, in order. Jobs whose subgraph contains `requested`
  /// (other than `requested` itself) go to `kept` instead.
  static std::vector<LiveJob> filterLive(
      const std::vector<PendingJob>& taken,
      const std::shared_ptr<ExprNode>& requested,
      std::vector<PendingJob>& kept);

  /// Precondition check under registryMutex_: the caller must own the
  /// registry unless it is empty (which transfers ownership). Throws
  /// common::Error naming `op` on a violation.
  void claimOwnershipLocked(const char* op);

  // The registry (jobs_, owner_) is guarded by registryMutex_ so
  // cross-thread handoffs are race-free and violations are detectable
  // rather than UB; draining_ is owner-thread-only state and hasJobs_
  // mirrors jobs_.empty() for the lock-free shouldDrain() fast path.
  bool asyncEnabled_ = false;
  bool draining_ = false;
  mutable std::mutex registryMutex_;
  std::thread::id owner_;
  std::atomic<bool> hasJobs_{false};
  std::vector<PendingJob> jobs_;
};

} // namespace skelcl::detail
