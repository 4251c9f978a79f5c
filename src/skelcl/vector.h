// skelcl::Vector<T> — the paper's abstract vector data type (Sec. III-A):
//
//  * a unified abstraction for memory accessible by both CPU and GPU(s);
//  * implicit, *lazy* data transfers: data moves only when the side that
//    reads it holds a stale copy ("Before every data transfer, the vector
//    implementation checks whether the data transfer is necessary; only
//    then the data is actually transferred");
//  * *asynchronous* transfers: every upload/download is a non-blocking
//    enqueue whose completion event rides on the chunk (Chunk::ready);
//    skeleton launches depend on those events instead of finish(), so
//    transfers overlap compute on the device's DMA engines, and large
//    uploads are split into pieces that double-buffer against the first
//    consuming kernel (see upload());
//  * multi-device distributions (single / copy / block) with automatic
//    redistribution, including a user combine function when collapsing
//    copies into blocks (Sec. III-D, used by list-mode OSEM).
//
// Copying a Vector is shallow: handles share the underlying state, which
// is what makes `update(f, c, f)`-style aliased skeleton calls work.
#pragma once

#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "skelcl/detail/runtime.h"
#include "skelcl/detail/source_utils.h"
#include "skelcl/distribution.h"
#include "skelcl/type_name.h"
#include "trace/recorder.h"

namespace skelcl {

namespace detail {

class ExprNode;

/// Materializes a deferred skeleton computation (defined in expr.cpp).
/// No-op when the node has already been evaluated or is being evaluated
/// further up the call stack.
void forceExprNode(const std::shared_ptr<ExprNode>& node);

/// One device's share of a vector.
struct Chunk {
  ocl::Buffer buffer;
  std::size_t deviceIndex = 0;
  std::size_t offset = 0; // element offset into the full vector
  std::size_t count = 0;  // element count on this device
  /// Event of the last command that wrote this chunk (upload, kernel,
  /// combine...). Invalid when the chunk was never written on-device.
  /// Consumers pass it as a dependency instead of calling finish().
  ocl::Event ready;
  /// When the last upload was split for double buffering: (end element,
  /// event) per piece, ascending. A skeleton can launch the sub-range
  /// covered by piece i as soon as that piece's transfer lands, instead
  /// of waiting for `ready` (the last piece). Cleared once consumed.
  std::vector<std::pair<std::size_t, ocl::Event>> pieces;
};

/// Type-erased interface so Arguments can hold vectors of any element
/// type (paper Sec. III-C: "It is particularly easy to pass vectors as
/// arguments").
class VectorStateBase {
public:
  virtual ~VectorStateBase() = default;
  virtual std::size_t size() const = 0;
  virtual Distribution distribution() const = 0;
  virtual void ensureOnDevices() = 0;
  virtual const Chunk& chunkForDevice(std::size_t deviceIndex) const = 0;
  virtual void markDevicesModified() = 0;
  virtual std::string elementTypeName() const = 0;
  /// Event the device-`deviceIndex` chunk becomes valid at (invalid Event
  /// when the vector has no chunk there or it was never written).
  virtual ocl::Event readyEventOn(std::size_t deviceIndex) const = 0;
  /// Records `event` as the last writer of the device-`deviceIndex`
  /// chunk, so later consumers depend on it instead of a finish().
  virtual void recordEventOn(std::size_t deviceIndex,
                             const ocl::Event& event) = 0;

  // --- type-erased geometry, for the expression-DAG evaluator ----------
  // The lazy evaluator (detail/expr.cpp) executes plans over states of
  // arbitrary element type; these virtuals expose exactly the operations
  // the eager skeletons used to perform through the typed interface.
  virtual std::size_t elementSize() const = 0;
  virtual std::size_t singleDeviceIndex() const = 0;
  virtual const std::vector<Chunk>& chunks() const = 0;
  virtual std::vector<std::pair<std::size_t, ocl::Event>> takeUploadPieces(
      std::size_t deviceIndex) = 0;
  virtual void allocateLikeBase(const VectorStateBase& input) = 0;
  /// Allocates fresh block-distributed chunks with exactly the given
  /// geometry and no host staging (the buffers are outputs about to be
  /// written device-side). Unlike matchLayout this never uploads; unlike
  /// allocateLikeBase the geometry comes from a layout, not another
  /// vector — SparseGather mirrors its matrix's row partition this way.
  virtual void allocateBlockLayoutBase(const std::vector<Chunk>& layout) = 0;
  virtual void matchLayout(Distribution dist, std::size_t singleDevice,
                           const std::vector<Chunk>& layout) = 0;
  virtual void adoptDeviceBufferBase(ocl::Buffer buffer, std::size_t count,
                                     std::size_t deviceIndex,
                                     ocl::Event ready) = 0;
  virtual void setDistribution(Distribution dist,
                               std::size_t singleDevice) = 0;

  // --- deferred-computation plumbing ------------------------------------
  // A vector produced by a lazy skeleton call carries the producing DAG
  // node here until a true consumption point forces it. The state also
  // remembers which later nodes *read* it, so a host-side mutation can
  // snapshot their inputs (force them) before the values change —
  // preserving eager-execution semantics exactly.

  /// Installs `node` as this state's deferred producer. `count` is the
  /// result's declared element count, so size() works without forcing.
  void installPending(std::shared_ptr<ExprNode> node, std::size_t count) {
    pending_ = std::move(node);
    pendingCount_ = count;
  }
  const std::shared_ptr<ExprNode>& pendingNode() const { return pending_; }
  bool hasPending() const { return pending_ != nullptr; }
  std::size_t pendingCount() const { return pendingCount_; }
  void clearPending() { pending_.reset(); }

  /// Files the failure of this state's deferred producer. The async
  /// scheduler dispatches jobs away from their consumption points; when
  /// one throws, the error is parked here and rethrown — as the original
  /// typed exception — at this vector's own next consumption, leaving
  /// every other job's result intact (per-subgraph poisoning).
  void poisonPending(std::exception_ptr error) {
    pendingError_ = std::move(error);
  }

  /// Materializes this state's deferred producer, if any; rethrows a
  /// parked failure exactly once (matching the synchronous contract: a
  /// failed evaluation is never retried, later reads see host data).
  void forcePending() {
    rethrowPoison();
    if (pending_ != nullptr) {
      forceExprNode(pending_);
      // The force may have drained the scheduler, which dispatches this
      // very producer and parks its failure here instead of throwing.
      rethrowPoison();
    }
  }

  /// Registers a deferred node that reads this state.
  void addConsumer(const std::shared_ptr<ExprNode>& node) {
    consumers_.emplace_back(node);
  }

  /// Forces every still-deferred node that reads this state. Called
  /// before any operation that changes the observable values, so lazy
  /// readers see the pre-mutation data — exactly what eager execution
  /// would have computed.
  void forceConsumers() {
    if (consumers_.empty()) {
      return;
    }
    std::vector<std::weak_ptr<ExprNode>> readers;
    readers.swap(consumers_);
    for (const auto& weak : readers) {
      if (auto node = weak.lock()) {
        forceExprNode(node);
      }
    }
  }

protected:
  void rethrowPoison() {
    if (pendingError_ != nullptr) {
      std::exception_ptr error;
      std::swap(error, pendingError_);
      std::rethrow_exception(error);
    }
  }

  std::shared_ptr<ExprNode> pending_;
  std::size_t pendingCount_ = 0;
  std::exception_ptr pendingError_;
  std::vector<std::weak_ptr<ExprNode>> consumers_;
};

template <typename T>
class VectorState final : public VectorStateBase {
public:
  static_assert(std::is_trivially_copyable_v<T>,
                "Vector element types must be trivially copyable");

  VectorState() = default;
  explicit VectorState(std::vector<T> data) : host_(std::move(data)) {}

  // --- host access ------------------------------------------------------

  /// A deferred producer knows its result size before materializing.
  std::size_t size() const override {
    return pending_ ? pendingCount_ : host_.size();
  }

  std::vector<T>& hostForWrite() {
    forcePending();
    forceConsumers();
    ensureOnHost();
    hostDirty_ = true;
    devicesDirty_ = false;
    return host_;
  }

  const std::vector<T>& hostForRead() {
    forcePending();
    // A blocking read is a sync point: flush deferred readers of this
    // vector first so their kernels are already enqueued when the
    // download is — the out-of-order engines then stream the read while
    // those kernels compute, just as eager call-site enqueueing did.
    forceConsumers();
    ensureOnHost();
    return host_;
  }

  /// Host storage without any synchronization (size queries etc.).
  const std::vector<T>& rawHost() const { return host_; }

  void resizeHost(std::size_t n) {
    forcePending();
    forceConsumers();
    ensureOnHost();
    host_.resize(n);
    dropChunks();
    hostDirty_ = true;
  }

  /// Overwrites every element on the host side without downloading any
  /// stale device data first (unlike hostForWrite, which preserves it).
  void fillHost(const T& value) {
    forcePending();
    forceConsumers();
    host_.assign(host_.size(), value);
    hostDirty_ = true;
    devicesDirty_ = false;
  }

  // --- distribution -----------------------------------------------------

  Distribution distribution() const override { return dist_; }
  std::size_t singleDeviceIndex() const override { return singleDevice_; }

  void setDistribution(Distribution dist, std::size_t singleDevice = 0)
      override {
    auto& runtime = Runtime::instance();
    runtime.requireInit();
    forcePending();
    if (dist == dist_ &&
        (dist != Distribution::Single || singleDevice == singleDevice_)) {
      return;
    }
    // Generic path: stage through the host lazily. The data currently on
    // the devices is downloaded only if it is newer than the host copy.
    trace::ScopedHostSpan span(trace::HostKind::Redistribute,
                               "vector.redistribute");
    ensureOnHost();
    dropChunks();
    dist_ = dist;
    singleDevice_ = singleDevice;
    hostDirty_ = true;
  }

  /// Redistribution copy -> block with a user combine function: device i
  /// keeps its own portion and element-wise combines every other
  /// device's portion into it — entirely device-side (paper Sec. IV-B).
  void setDistributionCombine(const std::string& combineSource) {
    auto& runtime = Runtime::instance();
    runtime.requireInit();
    forcePending();
    forceConsumers();
    COMMON_EXPECTS(dist_ == Distribution::Copy,
                   "combine redistribution requires a copy distribution");
    if (chunks_.empty() || !devicesDirty_) {
      // Copies are not newer than the host: plain redistribution.
      setDistribution(Distribution::Block);
      return;
    }
    const std::size_t devices = runtime.deviceCount();
    if (devices == 1) {
      // Single device: the copy already is the (whole) block.
      chunks_[0].offset = 0;
      dist_ = Distribution::Block;
      return;
    }
    trace::ScopedHostSpan span(trace::HostKind::Combine, "vector.combine",
                               trace::kNoDevice,
                               host_.size() * sizeof(T));

    ocl::Program program =
        buildCombineProgram(typeName<T>(), combineSource);

    // Failure atomicity: chunks_/dist_ are replaced only after every
    // block has been fully enqueued. A transfer or launch failure
    // mid-combine discards the half-built blocks; the vector stays
    // copy-distributed with its old chunks and host data untouched, so
    // the caller can retry the redistribution after handling the error.
    std::vector<Chunk> blocks = blockLayout(devices);
    for (Chunk& block : blocks) {
      const std::size_t d = block.deviceIndex;
      try {
        auto& queue = runtime.queue(d);
        const auto& device = runtime.devices()[d];
        block.buffer = runtime.context().createBuffer(
            device, std::max<std::size_t>(1, block.count * sizeof(T)));
        if (block.count == 0) {
          // This device's share rounded to zero elements; seeding or
          // folding it would enqueue zero-size device commands.
          continue;
        }
        // Own portion seeds the block (depends on the chunk being valid).
        ocl::Event seeded = queue.enqueueCopyBuffer(
            chunks_[d].buffer, block.offset * sizeof(T), block.buffer, 0,
            block.count * sizeof(T), depsOf(chunks_[d]));
        // Fold in every other device's copy of the same region. Two temp
        // buffers double-buffer the pipeline: the cross-device copy of
        // portion j+1 streams over PCIe into one temp while the combine
        // kernel folds the other temp into the block.
        ocl::Buffer temps[2];
        ocl::Event tempFree[2]; // last kernel that *read* each temp
        temps[0] = runtime.context().createBuffer(
            device, std::max<std::size_t>(1, block.count * sizeof(T)));
        temps[1] = runtime.context().createBuffer(
            device, std::max<std::size_t>(1, block.count * sizeof(T)));
        ocl::Event folded = seeded;
        std::size_t slot = 0;
        for (std::size_t j = 0; j < devices; ++j) {
          if (j == d) {
            continue;
          }
          std::vector<ocl::Event> copyDeps = depsOf(chunks_[j]);
          if (tempFree[slot].valid()) {
            copyDeps.push_back(tempFree[slot]);
          }
          ocl::Event copied = queue.enqueueCopyBuffer(
              chunks_[j].buffer, block.offset * sizeof(T), temps[slot], 0,
              block.count * sizeof(T), copyDeps);
          ocl::Kernel kernel = program.createKernel("skelcl_combine");
          kernel.setArg(0, block.buffer);
          kernel.setArg(1, temps[slot]);
          kernel.setArg(2, std::uint32_t(block.count));
          const std::size_t wg = std::min<std::size_t>(
              runtime.defaultWorkGroupSize(), device.maxWorkGroupSize());
          const std::size_t global = (block.count + wg - 1) / wg * wg;
          folded = queue.enqueueNDRange(kernel, ocl::NDRange1D{global, wg},
                                        {copied, folded});
          tempFree[slot] = folded;
          slot ^= 1;
        }
        block.ready = folded;
      } catch (ocl::ClError& e) {
        e.prependContext("combine redistribution on device " +
                         std::to_string(d));
        throw;
      }
    }
    chunks_ = std::move(blocks);
    dist_ = Distribution::Block;
    devicesDirty_ = true;
  }

  // --- device access ----------------------------------------------------

  void ensureOnDevices() override {
    forcePending();
    auto& runtime = Runtime::instance();
    runtime.requireInit();
    // Failure atomicity: an allocation or upload failure (injected or
    // organic) may leave some chunks allocated or partially written.
    // Dropping every chunk restores the invariant "host data is the
    // truth" — the next access re-allocates and re-uploads from the
    // still-valid host copy, and the caller sees a typed exception.
    try {
      if (chunks_.empty()) {
        allocateChunks();
        upload();
        hostDirty_ = false;
        return;
      }
      if (hostDirty_) {
        upload();
        hostDirty_ = false;
      }
    } catch (ocl::ClError& e) {
      dropChunks();
      hostDirty_ = true;
      devicesDirty_ = false;
      e.prependContext("vector upload of " + std::to_string(host_.size()) +
                       " element(s)");
      throw;
    }
  }

  const Chunk& chunkForDevice(std::size_t deviceIndex) const override {
    for (const Chunk& chunk : chunks_) {
      if (chunk.deviceIndex == deviceIndex) {
        return chunk;
      }
    }
    throw common::InvalidArgument(
        "vector has no data on device " + std::to_string(deviceIndex) +
        " (distribution: " + distributionName(dist_) + ")");
  }

  const std::vector<Chunk>& chunks() const override { return chunks_; }

  std::size_t elementSize() const override { return sizeof(T); }

  void markDevicesModified() override {
    COMMON_EXPECTS(!chunks_.empty(),
                   "dataOnDevicesModified: vector has no device data");
    devicesDirty_ = true;
  }

  void markHostModified() {
    hostDirty_ = true;
    devicesDirty_ = false;
  }

  bool devicesDirty() const { return devicesDirty_; }
  bool hostDirty() const { return hostDirty_; }
  bool hasDeviceData() const { return !chunks_.empty(); }

  std::string elementTypeName() const override { return typeName<T>(); }

  ocl::Event readyEventOn(std::size_t deviceIndex) const override {
    for (const Chunk& chunk : chunks_) {
      if (chunk.deviceIndex == deviceIndex) {
        return chunk.ready;
      }
    }
    return ocl::Event();
  }

  void recordEventOn(std::size_t deviceIndex,
                     const ocl::Event& event) override {
    for (Chunk& chunk : chunks_) {
      if (chunk.deviceIndex == deviceIndex) {
        chunk.ready = event;
        chunk.pieces.clear();
        return;
      }
    }
  }

  /// Moves the split-upload piece events of the device-`deviceIndex`
  /// chunk out (empty when the last upload was not split). Consuming
  /// skeletons call this once and pipeline their sub-launches against
  /// the pieces; afterwards only Chunk::ready remains.
  std::vector<std::pair<std::size_t, ocl::Event>> takeUploadPieces(
      std::size_t deviceIndex) override {
    for (Chunk& chunk : chunks_) {
      if (chunk.deviceIndex == deviceIndex) {
        return std::move(chunk.pieces);
      }
    }
    return {};
  }

  /// Dependency list for commands reading `chunk`: its ready event when
  /// it has one, nothing otherwise.
  static std::vector<ocl::Event> depsOf(const Chunk& chunk) {
    std::vector<ocl::Event> deps;
    if (chunk.ready.valid()) {
      deps.push_back(chunk.ready);
    }
    return deps;
  }

  /// Adopts an existing device buffer as this vector's single-device
  /// contents (used by Reduce/Scan to wrap their result buffers without
  /// a round-trip through the host). `ready` is the event of the command
  /// that produced the buffer contents; the eventual download depends on
  /// it instead of the producer having to finish() first.
  void adoptDeviceBufferBase(ocl::Buffer buffer, std::size_t count,
                             std::size_t deviceIndex,
                             ocl::Event ready) override {
    host_.assign(count, T{});
    clearPending();
    Chunk chunk;
    chunk.buffer = std::move(buffer);
    chunk.deviceIndex = deviceIndex;
    chunk.offset = 0;
    chunk.count = count;
    chunk.ready = std::move(ready);
    chunks_ = {std::move(chunk)};
    dist_ = Distribution::Single;
    singleDevice_ = deviceIndex;
    hostDirty_ = false;
    devicesDirty_ = true;
  }

  /// Allocates device chunks for an *output* vector mirroring the chunk
  /// geometry of an input (same distribution and size, fresh buffers).
  /// The input's element type may differ (Map<Tin, Tout>). Mirrors the
  /// input's *actual* chunks rather than re-partitioning: under measured
  /// weights a fresh block partition could disagree with the one the
  /// input was uploaded with, and element-wise kernels need identical
  /// geometry on both sides.
  void allocateLikeBase(const VectorStateBase& input) override {
    dropChunks();
    dist_ = input.distribution();
    singleDevice_ = input.singleDeviceIndex();
    host_.resize(input.size());
    allocateLayout(input.chunks());
    hostDirty_ = false;
  }

  void allocateBlockLayoutBase(const std::vector<Chunk>& layout) override {
    dropChunks();
    dist_ = Distribution::Block;
    singleDevice_ = 0;
    std::size_t total = 0;
    for (const Chunk& chunk : layout) {
      total += chunk.count;
    }
    host_.resize(total);
    allocateLayout(layout);
    hostDirty_ = false;
  }

  /// True when this vector's device chunks have exactly the given
  /// geometry (device, offset, count per chunk, same order).
  bool sameLayout(const std::vector<Chunk>& layout) const {
    if (chunks_.size() != layout.size()) {
      return false;
    }
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      if (chunks_[i].deviceIndex != layout[i].deviceIndex ||
          chunks_[i].offset != layout[i].offset ||
          chunks_[i].count != layout[i].count) {
        return false;
      }
    }
    return true;
  }

  /// Ensures this vector's device data has distribution `dist` and the
  /// exact chunk geometry of `layout`, re-staging through the host when
  /// it does not. Zip aligns its right operand with this: two block
  /// partitions made at different times may disagree under measured
  /// weights (and two single distributions may sit on different
  /// devices), and element-wise kernels need identical geometry.
  void matchLayout(Distribution dist, std::size_t singleDevice,
                   const std::vector<Chunk>& layout) override {
    forcePending();
    if (!chunks_.empty() && dist_ == dist &&
        (dist != Distribution::Single || singleDevice_ == singleDevice) &&
        sameLayout(layout)) {
      ensureOnDevices();
      return;
    }
    trace::ScopedHostSpan span(trace::HostKind::Redistribute,
                               "vector.redistribute");
    ensureOnHost();
    dropChunks();
    dist_ = dist;
    singleDevice_ = singleDevice;
    try {
      allocateLayout(layout);
      upload();
      hostDirty_ = false;
    } catch (ocl::ClError& e) {
      // Same failure atomicity as ensureOnDevices: the still-valid host
      // copy stays the truth, the next access re-stages from it.
      dropChunks();
      hostDirty_ = true;
      devicesDirty_ = false;
      e.prependContext("vector layout alignment of " +
                       std::to_string(host_.size()) + " element(s)");
      throw;
    }
  }

  void ensureOnHost() {
    forcePending();
    if (!devicesDirty_ || chunks_.empty()) {
      return;
    }
    trace::ScopedHostSpan span(trace::HostKind::Transfer, "vector.download",
                               trace::kNoDevice, host_.size() * sizeof(T));
    auto& runtime = Runtime::instance();
    // Downloads are transactional: they land in a staging buffer that is
    // committed only once every transfer has finished. A failed or
    // truncated read (injected faults, device loss) therefore leaves the
    // previous host data — e.g. the pre-redistribute values — intact.
    std::vector<T> staging(host_.size());
    // Enqueue every download non-blocking so transfers from different
    // devices overlap on their own PCIe links; wait on all at the end.
    std::vector<ocl::Event> pending;
    try {
      switch (dist_) {
        case Distribution::Single:
        case Distribution::Block:
          for (std::size_t idx :
               runtime.chunkVisitOrder(chunks_.size())) {
            const Chunk& chunk = chunks_[idx];
            if (chunk.count == 0) continue;
            pending.push_back(
                runtime.queue(chunk.deviceIndex)
                    .enqueueReadBuffer(chunk.buffer, 0,
                                       chunk.count * sizeof(T),
                                       staging.data() + chunk.offset,
                                       /*blocking=*/false, depsOf(chunk)));
          }
          break;
        case Distribution::Copy:
          // All copies are equal by definition; read the first.
          if (!host_.empty()) {
            const Chunk& chunk = chunks_.front();
            pending.push_back(
                runtime.queue(chunk.deviceIndex)
                    .enqueueReadBuffer(chunk.buffer, 0,
                                       chunk.count * sizeof(T),
                                       staging.data(),
                                       /*blocking=*/false, depsOf(chunk)));
          }
          break;
      }
    } catch (ocl::ClError& e) {
      e.prependContext("vector download of " +
                       std::to_string(host_.size()) + " element(s)");
      throw;
    }
    for (const ocl::Event& event : pending) {
      event.wait();
    }
    host_ = std::move(staging);
    devicesDirty_ = false;
  }

private:
  /// Minimum bytes per upload piece. Every piece pays the fixed PCIe
  /// latency (~8us) on top of its bandwidth time, so pieces must be
  /// large enough to keep that tax a small fraction (1 MiB at ~5 GB/s
  /// is ~200us of bandwidth time, making the latency < 5%); smaller
  /// uploads transfer in one piece and overlap nothing.
  static constexpr std::size_t kSplitMinBytes = 1024 * 1024;

  /// One chunk descriptor per device, sized by the runtime's current
  /// block weights (detail/partition.h). With even weights — the default
  /// — this is the paper's even split; on heterogeneous platforms or
  /// under measured feedback, faster devices receive proportionally
  /// larger contiguous parts. Devices whose share rounds to zero still
  /// get a (count == 0) chunk so chunk index == device index holds; no
  /// device command is ever enqueued for those.
  std::vector<Chunk> blockLayout(std::size_t devices) const {
    const std::vector<std::size_t> counts =
        Runtime::instance().blockPartition(host_.size());
    COMMON_CHECK(counts.size() == devices);
    std::vector<Chunk> layout;
    std::size_t offset = 0;
    for (std::size_t d = 0; d < devices; ++d) {
      Chunk chunk;
      chunk.deviceIndex = d;
      chunk.offset = offset;
      chunk.count = counts[d];
      offset += chunk.count;
      layout.push_back(chunk);
    }
    return layout;
  }

  /// Fresh buffers with exactly the given chunk geometry (used when the
  /// geometry must mirror another vector's instead of being computed
  /// from the current distribution/weights).
  void allocateLayout(const std::vector<Chunk>& layout) {
    auto& runtime = Runtime::instance();
    chunks_.clear();
    for (const Chunk& reference : layout) {
      Chunk chunk;
      chunk.deviceIndex = reference.deviceIndex;
      chunk.offset = reference.offset;
      chunk.count = reference.count;
      chunk.buffer = runtime.context().createBuffer(
          runtime.devices()[chunk.deviceIndex],
          std::max<std::size_t>(1, chunk.count * sizeof(T)));
      chunks_.push_back(std::move(chunk));
    }
  }

  void allocateChunks() {
    auto& runtime = Runtime::instance();
    const std::size_t devices = runtime.deviceCount();
    const std::size_t n = host_.size();
    switch (dist_) {
      case Distribution::Single: {
        Chunk chunk;
        chunk.deviceIndex = singleDevice_;
        chunk.offset = 0;
        chunk.count = n;
        chunk.buffer = runtime.context().createBuffer(
            runtime.devices()[singleDevice_],
            std::max<std::size_t>(1, n * sizeof(T)));
        chunks_ = {std::move(chunk)};
        break;
      }
      case Distribution::Copy: {
        chunks_.clear();
        for (std::size_t d = 0; d < devices; ++d) {
          Chunk chunk;
          chunk.deviceIndex = d;
          chunk.offset = 0;
          chunk.count = n;
          chunk.buffer = runtime.context().createBuffer(
              runtime.devices()[d], std::max<std::size_t>(1, n * sizeof(T)));
          chunks_.push_back(std::move(chunk));
        }
        break;
      }
      case Distribution::Block: {
        chunks_ = blockLayout(devices);
        for (Chunk& chunk : chunks_) {
          chunk.buffer = runtime.context().createBuffer(
              runtime.devices()[chunk.deviceIndex],
              std::max<std::size_t>(1, chunk.count * sizeof(T)));
        }
        break;
      }
    }
  }

  /// Uploads every stale chunk. Large chunks are split into
  /// Runtime::transferPieces() back-to-back writes so a consumer can
  /// start computing on piece i while piece i+1 still streams over PCIe
  /// (double buffering); the per-piece events land in Chunk::pieces and
  /// the last one becomes Chunk::ready. The H2D engine runs the pieces
  /// FIFO, so total transfer time is unchanged.
  void upload() {
    trace::ScopedHostSpan span(trace::HostKind::Transfer, "vector.upload",
                               trace::kNoDevice, host_.size() * sizeof(T));
    auto& runtime = Runtime::instance();
    // Chunks live on different devices and cover disjoint ranges, so any
    // visit order is legal; under schedule fuzzing the order is shuffled.
    for (std::size_t idx : runtime.chunkVisitOrder(chunks_.size())) {
      Chunk& chunk = chunks_[idx];
      if (chunk.count == 0) continue;
      auto& queue = runtime.queue(chunk.deviceIndex);
      chunk.pieces.clear();
      const std::size_t bytes = chunk.count * sizeof(T);
      // Every piece must stay >= kSplitMinBytes: each one pays the fixed
      // PCIe latency, so small pieces cost more than overlap wins.
      const std::size_t pieces = std::min(
          runtime.transferPieces(),
          std::min(chunk.count, bytes / kSplitMinBytes));
      if (pieces <= 1) {
        chunk.ready = queue.enqueueWriteBuffer(
            chunk.buffer, 0, bytes, host_.data() + chunk.offset);
        continue;
      }
      std::size_t begin = 0;
      for (std::size_t p = 0; p < pieces; ++p) {
        const std::size_t end =
            p + 1 == pieces ? chunk.count : (p + 1) * chunk.count / pieces;
        if (end == begin) continue;
        ocl::Event event = queue.enqueueWriteBuffer(
            chunk.buffer, begin * sizeof(T), (end - begin) * sizeof(T),
            host_.data() + chunk.offset + begin);
        chunk.pieces.emplace_back(end, event);
        chunk.ready = event;
        begin = end;
      }
    }
  }

  void dropChunks() { chunks_.clear(); }

  std::vector<T> host_;
  std::vector<Chunk> chunks_;
  Distribution dist_ = Distribution::Single;
  std::size_t singleDevice_ = 0;
  bool hostDirty_ = true;     // host copy newer than device copies
  bool devicesDirty_ = false; // device copies newer than host
};

} // namespace detail

template <typename T>
class Vector {
public:
  using value_type = T;

  Vector() : state_(std::make_shared<detail::VectorState<T>>()) {}

  explicit Vector(std::size_t n)
      : state_(std::make_shared<detail::VectorState<T>>(std::vector<T>(n))) {}

  Vector(std::size_t n, const T& value)
      : state_(std::make_shared<detail::VectorState<T>>(
            std::vector<T>(n, value))) {}

  /// Paper Listing 1: Vector<float> A(a_ptr, ARRAY_SIZE);
  Vector(const T* data, std::size_t n)
      : state_(std::make_shared<detail::VectorState<T>>(
            std::vector<T>(data, data + n))) {}

  explicit Vector(std::vector<T> data)
      : state_(std::make_shared<detail::VectorState<T>>(std::move(data))) {}

  template <typename InputIt>
  Vector(InputIt first, InputIt last)
      : state_(std::make_shared<detail::VectorState<T>>(
            std::vector<T>(first, last))) {}

  // --- size & host element access ---------------------------------------

  std::size_t size() const { return state_->size(); }
  bool empty() const { return size() == 0; }
  void resize(std::size_t n) { state_->resizeHost(n); }

  /// Reading host access: downloads first when devices hold newer data.
  const T& operator[](std::size_t i) const {
    return state_->hostForRead()[i];
  }
  /// Writing host access: marks the host copy as the newest.
  T& operator[](std::size_t i) { return state_->hostForWrite()[i]; }

  /// Whole-vector host views.
  const std::vector<T>& hostData() const { return state_->hostForRead(); }
  std::vector<T>& hostDataForWriting() { return state_->hostForWrite(); }

  /// Sets every element to `value` (cheaper than writing through
  /// hostDataForWriting(): no download of stale device data happens).
  void fill(const T& value) { state_->fillHost(value); }

  auto begin() const { return state_->hostForRead().begin(); }
  auto end() const { return state_->hostForRead().end(); }

  // --- distribution & synchronization ------------------------------------

  /// Forces a deferred producer first: the result's distribution is
  /// decided at evaluation (it follows the input layout), so answering
  /// from the unevaluated state would report the default.
  Distribution distribution() const {
    state_->forcePending();
    return state_->distribution();
  }

  void setDistribution(Distribution dist, std::size_t singleDevice = 0) {
    state_->setDistribution(dist, singleDevice);
  }

  /// Redistribution with a combine operator (copy -> block), e.g.
  ///   c.setDistribution(Distribution::Block, addSource);
  void setDistribution(Distribution dist, const std::string& combineSource) {
    COMMON_EXPECTS(dist == Distribution::Block,
                   "combine redistribution targets the block distribution");
    state_->setDistributionCombine(combineSource);
  }

  /// Paper Sec. IV-B: after a skeleton that updates a vector by
  /// side-effect (through Arguments), tell SkelCL the device data is
  /// newer than the host copy.
  void dataOnDevicesModified() {
    state_->forcePending();
    state_->markDevicesModified();
  }
  void dataOnHostModified() { state_->markHostModified(); }

  /// Deep copy (the copy constructor shares state).
  Vector clone() const {
    return Vector(state_->hostForRead());
  }

  detail::VectorState<T>& state() const { return *state_; }
  std::shared_ptr<detail::VectorStateBase> stateHandle() const {
    return state_;
  }

private:
  std::shared_ptr<detail::VectorState<T>> state_;
};

} // namespace skelcl
