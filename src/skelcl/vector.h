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
//    consuming kernel (see vector_state.cpp);
//  * multi-device distributions (single / copy / block) with automatic
//    redistribution, including a user combine function when collapsing
//    copies into blocks (Sec. III-D, used by list-mode OSEM).
//
// Copying a Vector is shallow: handles share the underlying state, which
// is what makes `update(f, c, f)`-style aliased skeleton calls work.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "skelcl/detail/runtime.h"
#include "skelcl/distribution.h"
#include "skelcl/type_name.h"

namespace skelcl {

namespace detail {

/// (end element, event) list of a split upload, ascending by end.
using UploadPieces = std::vector<std::pair<std::size_t, ocl::Event>>;

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
  UploadPieces pieces;
};

/// The chunks of distribution `dist` for `units` units of `unitSize`
/// elements each, without buffers. Single is the whole vector on
/// `singleDevice`, Copy the whole vector on every device. Block is one
/// chunk per device, holding whole units in the runtime's block-weight
/// split (detail/partition.h). On a uniform machine this is the paper's
/// even split; on heterogeneous platforms, faster devices receive
/// proportionally larger contiguous parts. Devices whose share rounds to
/// zero still get a (count == 0) chunk so chunk index == device index
/// holds; no device command is ever enqueued for those. Offsets and
/// counts are in elements.
std::vector<Chunk> layoutOf(Distribution dist, std::size_t singleDevice,
                            std::size_t units, std::size_t unitSize = 1);

class ExprNode;

/// The device side of a Vector, untyped. Every element type is trivially
/// copyable and everything device-side — transfers, chunk geometry,
/// combine copies, buffer sizes — is byte arithmetic, so the element
/// type enters only as its byte size and a type-name resolver. This is
/// what Arguments (paper Sec. III-C: "It is particularly easy to pass
/// vectors as arguments"), the DAG evaluator and the scheduler hold.
/// Only the host copy is typed, since Vector<T>::hostData() hands out a
/// std::vector<T>: TypedVectorState<T> owns it behind the three private
/// host-storage hooks at the bottom. Logic lives in vector_state.cpp.
class VectorState {
public:
  using TypeNameFn = std::string (*)();

  VectorState(std::size_t elemSize, TypeNameFn typeName)
      : elemSize_(elemSize), typeName_(typeName) {}
  VectorState(const VectorState&) = delete;
  VectorState& operator=(const VectorState&) = delete;

  // --- host access ------------------------------------------------------

  /// A deferred producer knows its result size before materializing.
  std::size_t size() const { return pending_ ? pendingCount_ : hostCount(); }
  /// Resolved on every call, never at construction: a vector of a user
  /// struct may be built (and distributed) before registerType<S>().
  std::string elementTypeName() const { return typeName_(); }

  /// Makes the host copy current: forces the deferred producer, then —
  /// a host access is a sync point — flushes deferred readers of this
  /// vector so their kernels are already enqueued when the download is
  /// (the out-of-order engines then stream the read while those kernels
  /// compute, just as eager call-site enqueueing did), then downloads.
  void syncHost();
  /// syncHost(), then resizes the host copy and drops the device chunks.
  void resizeHost(std::size_t n);
  /// Downloads the device data if it is newer than the host copy.
  void ensureOnHost();

  void markHostModified() {
    hostDirty_ = true;
    devicesDirty_ = false;
  }
  bool hostDirty() const { return hostDirty_; }
  /// True when the device chunks are newer than the host copy.
  bool devicesDirty() const { return devicesDirty_; }
  std::size_t elementSize() const { return elemSize_; }
  bool hasDeviceData() const { return !chunks_.empty(); }

  // --- distribution -----------------------------------------------------

  Distribution distribution() const { return dist_; }
  std::size_t singleDeviceIndex() const { return singleDevice_; }
  /// Lazy: downloads the device data if it is newer than the host copy
  /// and drops the chunks; the next placement uploads the new layout.
  /// Throws common::InvalidArgument for a single device the runtime does
  /// not have, leaving the vector as it was.
  void setDistribution(Distribution dist, std::size_t singleDevice = 0);
  /// Redistribution copy -> block with a user combine function: device i
  /// keeps its own portion and element-wise combines every other
  /// device's portion into it — entirely device-side (paper Sec. IV-B).
  void setDistributionCombine(const std::string& combineSource);

  // --- device access ----------------------------------------------------

  /// place() in the vector's own layout: its chunks, or a fresh
  /// layoutOf its distribution when it has none.
  void ensureOnDevices();
  /// The one placement routine: gives the device data distribution
  /// `dist` and the exact chunk geometry of `layout`. When every chunk of
  /// `layout` already exists with the same device, offset and count, in
  /// whatever distribution, those chunks are kept (the rest dropped) and
  /// uploaded only when the host copy is newer. Otherwise the layout is
  /// staged through the host: the device data is downloaded if it is
  /// newer, the target layout allocated and uploaded.
  void place(Distribution dist, std::size_t singleDevice,
             const std::vector<Chunk>& layout);
  /// True when place(..., layout) would move no data: a chunk with the
  /// geometry of each of `layout`'s exists and the host copy is not
  /// newer.
  bool holds(const std::vector<Chunk>& layout) const {
    return !hostDirty_ && !chunksMatching(layout).empty();
  }
  const std::vector<Chunk>& chunks() const { return chunks_; }
  const Chunk& chunkForDevice(std::size_t deviceIndex) const;
  void markDevicesModified();
  /// Event the device-`deviceIndex` chunk becomes valid at (invalid Event
  /// when the vector has no chunk there or it was never written).
  ocl::Event readyEventOn(std::size_t deviceIndex) const;
  /// Records `event` as the last writer of the device-`deviceIndex`
  /// chunk, so later consumers depend on it instead of a finish().
  void recordEventOn(std::size_t deviceIndex, const ocl::Event& event);
  /// Moves the split-upload piece events of the device-`deviceIndex`
  /// chunk out (empty when the last upload was not split). Consuming
  /// skeletons call this once and pipeline their sub-launches against
  /// the pieces; afterwards only Chunk::ready remains.
  UploadPieces takeUploadPieces(std::size_t deviceIndex);

  /// Adopts an existing device buffer as this vector's single-device
  /// contents (Reduce/Scan wrap their result buffers this way, without a
  /// round-trip through the host). `ready` is the event of the command
  /// that produced the buffer contents; the eventual download depends on
  /// it instead of the producer having to finish() first.
  void adoptDeviceBuffer(ocl::Buffer buffer, std::size_t count,
                         std::size_t deviceIndex, ocl::Event ready);
  /// Allocates fresh output chunks with exactly the given distribution
  /// and geometry and no host staging (the buffers are about to be
  /// written device-side). Element-wise outputs mirror an input's
  /// *actual* chunks rather than re-partitioning: a Stencil output's
  /// row-aligned blocks differ from a fresh block partition of the same
  /// size. SparseGather mirrors its matrix's row partition.
  void allocateOutput(Distribution dist, std::size_t singleDevice,
                      const std::vector<Chunk>& layout);

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
  void forcePending();
  /// Registers a deferred node that reads this state.
  void addConsumer(const std::shared_ptr<ExprNode>& node) {
    consumers_.emplace_back(node);
  }
  /// Forces every still-deferred node that reads this state. Called
  /// before any operation that changes the observable values, so lazy
  /// readers see the pre-mutation data — exactly what eager execution
  /// would have computed.
  void forceConsumers();

protected:
  /// Only the typed subclass is ever destroyed (through the shared_ptr
  /// that created it), so the destructor need not be virtual.
  ~VectorState() = default;

private:
  // --- host-storage hooks: the only typed operations --------------------

  /// The host copy, hostCount() * elemSize_ bytes.
  virtual std::span<const std::byte> hostBytes() const = 0;
  /// Resizes the host copy to `count` elements; new ones value-initialized.
  virtual void resizeHostStorage(std::size_t count) = 0;
  /// Transactional download: `fill` writes a fresh staging copy of the
  /// host storage, which replaces the host copy only if `fill` returns.
  virtual void commitDownload(
      const std::function<void(std::byte* staging)>& fill) = 0;

  std::size_t hostCount() const { return hostBytes().size() / elemSize_; }
  std::size_t chunkIndexOn(std::size_t deviceIndex) const;
  /// Indices of the chunks with the geometry (device, offset, count) of
  /// each of `layout`'s; empty unless every one has such a chunk.
  std::vector<std::size_t> chunksMatching(
      const std::vector<Chunk>& layout) const;
  void allocateLayout(const std::vector<Chunk>& layout);
  void upload();
  void rethrowPoison();

  std::size_t elemSize_;
  TypeNameFn typeName_;
  std::vector<Chunk> chunks_;
  Distribution dist_ = Distribution::Single;
  std::size_t singleDevice_ = 0;
  bool hostDirty_ = true;     // host copy newer than device copies
  bool devicesDirty_ = false; // device copies newer than host

  std::shared_ptr<ExprNode> pending_;
  std::size_t pendingCount_ = 0;
  std::exception_ptr pendingError_;
  std::vector<std::weak_ptr<ExprNode>> consumers_;
};

/// A VectorState whose host copy is a std::vector<T>.
template <typename T>
class TypedVectorState final : public VectorState {
public:
  static_assert(std::is_trivially_copyable_v<T>,
                "Vector element types must be trivially copyable");

  explicit TypedVectorState(std::vector<T> data = {})
      : VectorState(sizeof(T), &typeName<T>), host_(std::move(data)) {}

  const std::vector<T>& hostForRead() {
    syncHost();
    return host_;
  }
  std::vector<T>& hostForWrite() {
    syncHost();
    markHostModified();
    return host_;
  }
  /// Host storage without any synchronization (size queries etc.).
  const std::vector<T>& rawHost() const { return host_; }

  /// Overwrites every element on the host side without downloading any
  /// stale device data first (unlike hostForWrite, which preserves it).
  void fillHost(const T& value) {
    forcePending();
    forceConsumers();
    host_.assign(host_.size(), value);
    markHostModified();
  }

private:
  std::span<const std::byte> hostBytes() const override {
    return std::as_bytes(std::span(host_));
  }
  void resizeHostStorage(std::size_t count) override { host_.resize(count); }
  void commitDownload(
      const std::function<void(std::byte*)>& fill) override {
    std::vector<T> staging(host_.size());
    fill(reinterpret_cast<std::byte*>(staging.data()));
    host_ = std::move(staging);
  }

  std::vector<T> host_;
};

} // namespace detail

template <typename T>
class Vector {
public:
  using value_type = T;

  Vector() : Vector(std::vector<T>()) {}
  explicit Vector(std::size_t n) : Vector(std::vector<T>(n)) {}
  Vector(std::size_t n, const T& value) : Vector(std::vector<T>(n, value)) {}
  /// Paper Listing 1: Vector<float> A(a_ptr, ARRAY_SIZE);
  Vector(const T* data, std::size_t n)
      : Vector(std::vector<T>(data, data + n)) {}
  explicit Vector(std::vector<T> data)
      : state_(std::make_shared<detail::TypedVectorState<T>>(
            std::move(data))) {}
  template <typename InputIt>
  Vector(InputIt first, InputIt last) : Vector(std::vector<T>(first, last)) {}

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

  detail::TypedVectorState<T>& state() const { return *state_; }
  std::shared_ptr<detail::VectorState> stateHandle() const { return state_; }

private:
  std::shared_ptr<detail::TypedVectorState<T>> state_;
};

} // namespace skelcl
