// Global SkelCL runtime: the devices selected at init(), one command
// queue per device, and the shared on-disk kernel cache.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/prng.h"
#include "ocl/ocl.h"
#include "skelcl/distribution.h"
#include "skelcl/kernel_cache.h"

namespace skelcl {

namespace detail {
// The runtime's environment knobs (SKELCL_SERIALIZE, SKELCL_TRACE,
// SKELCL_CACHE_DIR, ...) all parse through these helpers so 0/1/true/
// false handling is consistent everywhere.
using common::envFlag;
using common::envStr;
} // namespace detail

/// Which devices init() should claim.
struct DeviceSelection {
  ocl::DeviceType type = ocl::DeviceType::GPU;
  std::size_t count = 0; // 0 = all matching devices

  static DeviceSelection allGPUs() { return {ocl::DeviceType::GPU, 0}; }
  static DeviceSelection nGPUs(std::size_t n) {
    return {ocl::DeviceType::GPU, n};
  }
  static DeviceSelection allDevices() { return {ocl::DeviceType::All, 0}; }
};

namespace detail {

class Runtime {
public:
  static Runtime& instance();

  void init(const DeviceSelection& selection);
  void terminate();
  bool initialized() const noexcept { return initialized_; }

  /// Throws unless init() ran; every public entry point calls this.
  void requireInit() const;

  const std::vector<ocl::Device>& devices() const;
  std::size_t deviceCount() const { return devices().size(); }
  ocl::Context& context();
  ocl::CommandQueue& queue(std::size_t deviceIndex);
  KernelCache& kernelCache();

  /// SkelCL's default work-group size (the paper: "SkelCL uses its
  /// default work-group size of 256"). Element-wise launches too small
  /// to give every compute unit a group of this size use smaller groups
  /// (see effectiveWorkGroupSize).
  std::size_t defaultWorkGroupSize() const noexcept { return 256; }

  /// True when SKELCL_SERIALIZE=1 forced in-order queues at init():
  /// identical commands are enqueued, but every command serializes after
  /// the previous one instead of scheduling from the event DAG. Escape
  /// hatch and the baseline for the transfer/compute-overlap ablation.
  bool serializedQueues() const noexcept { return serializedQueues_; }

  /// Ready-queue tie-breaking of the out-of-order scheduler, set at
  /// init() from SKELCL_SCHEDULE_SEED (unset: FIFO; N: seeded shuffle N;
  /// anything else: init() throws common::InvalidArgument).
  /// Under SeededShuffle the queues add seeded dispatch jitter and the
  /// skeletons visit per-device chunks in a seeded order — together they
  /// explore alternative legal schedules of the same command DAG. The
  /// schedule-fuzzing suite asserts outputs are invariant across seeds.
  const ocl::SchedulePolicy& schedulePolicy() const noexcept {
    return schedulePolicy_;
  }

  /// Visit order for a set of `n` per-device chunks: the identity under
  /// Fifo, a seeded permutation under SeededShuffle. Only used where the
  /// result is order-independent by construction (disjoint chunks);
  /// order-sensitive combines (Reduce partials, combine folds) keep
  /// their canonical element order so outputs stay bit-identical.
  std::vector<std::size_t> chunkVisitOrder(std::size_t n);

  /// Destination of the trace the current init()..terminate() cycle
  /// records (set from SKELCL_TRACE at init; empty = not tracing).
  const std::string& tracePath() const noexcept { return tracePath_; }

  /// True unless SKELCL_FUSION=0 disabled the expression-DAG rewrite
  /// rules at init(). With fusion off, every lazily built node still
  /// flows through the DAG evaluator, but each stage compiles and
  /// launches its own kernel and materializes its intermediate vector —
  /// the differential baseline fused execution must match bit-for-bit.
  bool fusionEnabled() const noexcept { return fusionEnabled_; }

  /// What the rewrite pass achieved this init()..terminate() cycle. The
  /// bytes of the intermediates it could not avoid are the trace's
  /// "intermediate_bytes" counter (trace::Report::intermediateBytes).
  struct FusionStats {
    std::uint64_t fusedStages = 0; // stages absorbed into parents

    /// Delta between two snapshots — see KernelCache::Stats::operator-.
    friend FusionStats operator-(const FusionStats& later,
                                 const FusionStats& earlier) {
      return FusionStats{later.fusedStages - earlier.fusedStages};
    }
  };
  /// Snapshot of the counter. Atomic, so a snapshot taken on one thread
  /// never races accounting on another under TSan.
  FusionStats fusionStats() const noexcept {
    return FusionStats{fusedStages_.load()};
  }
  /// One fused plan evaluated, absorbing `stagesAbsorbed` children.
  void noteFusedEvaluation(std::uint64_t stagesAbsorbed) noexcept {
    fusedStages_.fetch_add(stagesAbsorbed);
  }

  /// Drops the per-init program memo (the disk cache underneath stays).
  /// The job service's "per-tenant isolation" baseline uses this to make
  /// each tenant pay its own program load, as separate processes would.
  void clearPrograms() {
    std::lock_guard lock(programMutex_);
    programMemo_.clear();
  }

  /// Most sources the program and name memos each hold: the next new
  /// source clears a full memo, so a long-running job service stays
  /// bounded. A dropped program comes back as a disk-cache load.
  static constexpr std::size_t kMemoCapacity = 256;

  /// Process-wide memo for generated skeleton programs: one build per
  /// source per init() cycle, the disk cache underneath making
  /// cross-process reuse cheap. A program is identified by its source
  /// alone: the build is a pure function of it. The handle is returned by
  /// value, so a cleared memo invalidates no caller. Thread-safe: any
  /// thread may request a program — distinct sources build in parallel,
  /// concurrent requests for the same source block on one build (a
  /// failed build is not memoized; the next request retries, preserving
  /// the synchronous retry semantics).
  ocl::Program programFor(const std::string& source);

  /// Memo of UserFunction's parse for this init()..terminate() cycle:
  /// the names of the functions `source` defines, keyed by the source
  /// text, so a skeleton built again from a source seen before does not
  /// re-lex it. Holds names only, never programs, and at most
  /// kMemoCapacity sources. `parse(source)` runs on a miss; when it
  /// throws, nothing is memoized and the exception propagates, so the
  /// next request parses again. Thread-safe.
  template <typename Parse>
  std::vector<std::string> userFunctionNames(const std::string& source,
                                             Parse parse) {
    {
      std::lock_guard lock(nameMutex_);
      if (auto it = nameMemo_.find(source); it != nameMemo_.end()) {
        return it->second;
      }
    }
    std::vector<std::string> names = parse(source);
    std::lock_guard lock(nameMutex_);
    if (nameMemo_.size() >= kMemoCapacity) {
      nameMemo_.clear();
    }
    nameMemo_.emplace(source, names);
    return names;
  }

  /// Per-device block weights, one entry per claimed device, order
  /// matching devices(): each device's DeviceSpec::peakCyclesPerNs,
  /// taken once at init(). A uniform machine has equal weights, so its
  /// block split is the paper's even one.
  const std::vector<double>& blockWeights() const;

  /// Node index per claimed device, order matching devices(). All zero
  /// on single-node machines.
  std::vector<std::uint32_t> deviceNodes() const;

  /// Chunk sizes of a block-distributed vector of n elements: the
  /// deterministic two-level (node, then device) largest-remainder split
  /// of n by blockWeights(). Single-node machines get exactly the flat
  /// split, so pre-cluster behavior is unchanged.
  std::vector<std::size_t> blockPartition(std::size_t n) const;

private:
  Runtime() = default;

  /// One memoized program. Entries are pinned by shared_ptr so the map
  /// can rehash while another thread builds; call_once serializes
  /// concurrent builders of the same key.
  struct ProgramEntry {
    std::once_flag once;
    std::optional<ocl::Program> program;
  };

  bool initialized_ = false;
  bool serializedQueues_ = false;
  bool fusionEnabled_ = true;
  std::atomic<std::uint64_t> fusedStages_{0};
  std::mutex programMutex_;
  std::unordered_map<std::string, std::shared_ptr<ProgramEntry>>
      programMemo_;
  std::mutex nameMutex_;
  std::unordered_map<std::string, std::vector<std::string>> nameMemo_;
  ocl::SchedulePolicy schedulePolicy_;
  common::Xoshiro256 orderRng_;
  std::string tracePath_;
  std::vector<ocl::Device> devices_;
  std::vector<double> blockWeights_;
  std::unique_ptr<ocl::Context> context_;
  std::vector<ocl::CommandQueue> queues_;
  std::unique_ptr<KernelCache> cache_;
};

/// Scoped snapshot over the process-global fusion and kernel-cache
/// counters: captures both at construction, `fusionDelta()` /
/// `cacheDelta()` report what happened since. The counters themselves
/// stay cumulative — concurrent scopes each see their own window, so
/// per-tenant accounting and back-to-back bench scenarios don't bleed
/// into each other. Requires init().
class StatsScope {
public:
  StatsScope()
      : fusion0_(Runtime::instance().fusionStats()),
        cache0_(Runtime::instance().kernelCache().stats()) {}

  Runtime::FusionStats fusionDelta() const {
    return Runtime::instance().fusionStats() - fusion0_;
  }
  KernelCache::Stats cacheDelta() const {
    return Runtime::instance().kernelCache().stats() - cache0_;
  }

private:
  Runtime::FusionStats fusion0_;
  KernelCache::Stats cache0_;
};

} // namespace detail

/// Initializes SkelCL (paper Listing 1: "SkelCL::init();"). Claims the
/// selected devices — by default every GPU in the system.
void init(const DeviceSelection& selection = DeviceSelection::allGPUs());

/// Releases all devices. Vectors created before terminate() must not be
/// used afterwards.
void terminate();

/// Number of devices SkelCL is using.
std::size_t deviceCount();

} // namespace skelcl
