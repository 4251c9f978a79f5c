// detail::VectorState — the untyped device side of skelcl::Vector (see
// vector.h): chunk geometry, lazy and split uploads, transactional
// downloads, redistribution (including the device-side copy -> block
// combine), output allocation and placement, all in units of the
// element's byte size. The typed host copy is reached only through the
// three host-storage hooks.
#include "skelcl/vector.h"

#include <algorithm>
#include <optional>

#include "skelcl/detail/expr.h"
#include "skelcl/detail/skeleton_common.h"
#include "skelcl/detail/source_utils.h"
#include "trace/recorder.h"

namespace skelcl::detail {

namespace {

/// Minimum bytes per upload piece. Every piece pays the fixed PCIe
/// latency (~8us) on top of its bandwidth time, so pieces must be large
/// enough to keep that tax a small fraction (1 MiB at ~5 GB/s is ~200us
/// of bandwidth time, making the latency < 5%); smaller uploads transfer
/// in one piece and overlap nothing.
constexpr std::size_t kSplitMinBytes = 1024 * 1024;
/// Pieces a large upload is split into, so the compute engine can start
/// on early pieces while later ones stream in (double buffering).
constexpr std::size_t kUploadPieces = 4;

} // namespace

std::vector<Chunk> layoutOf(Distribution dist, std::size_t singleDevice,
                            std::size_t units, std::size_t unitSize) {
  auto& runtime = Runtime::instance();
  // Units per device: a block share each, or the whole vector on every
  // device (copy) or on the single one.
  const bool block = dist == Distribution::Block;
  const std::vector<std::size_t> counts =
      block ? runtime.blockPartition(units)
            : std::vector<std::size_t>(runtime.deviceCount(), units);
  COMMON_CHECK(counts.size() == runtime.deviceCount());
  std::vector<Chunk> layout;
  std::size_t offset = 0;
  for (std::size_t d = 0; d < counts.size(); ++d) {
    if (dist == Distribution::Single && d != singleDevice) {
      continue;
    }
    Chunk chunk;
    chunk.deviceIndex = d;
    chunk.offset = offset;
    chunk.count = counts[d] * unitSize;
    offset += block ? chunk.count : 0;
    layout.push_back(std::move(chunk));
  }
  return layout;
}

// --- host access -----------------------------------------------------------

void VectorState::syncHost() {
  forcePending();
  forceConsumers();
  ensureOnHost();
}

void VectorState::resizeHost(std::size_t n) {
  syncHost();
  resizeHostStorage(n);
  chunks_.clear();
  hostDirty_ = true;
}

void VectorState::ensureOnHost() {
  forcePending();
  if (!devicesDirty_ || chunks_.empty()) {
    return;
  }
  trace::ScopedHostSpan span(trace::HostKind::Transfer, "vector.download",
                             trace::kNoDevice, hostBytes().size());
  auto& runtime = Runtime::instance();
  // Downloads are transactional: they land in a staging buffer that is
  // committed only once every transfer has finished. A failed or
  // truncated read (injected faults, device loss) therefore leaves the
  // previous host data — e.g. the pre-redistribute values — intact.
  commitDownload([&](std::byte* staging) {
    // Enqueue every download non-blocking so transfers from different
    // devices overlap on their own PCIe links; wait on all at the end.
    // All copies are equal by definition: a copy distribution reads its
    // first.
    const std::size_t reads =
        dist_ == Distribution::Copy ? 1 : chunks_.size();
    std::vector<ocl::Event> pending;
    try {
      for (std::size_t idx : runtime.chunkVisitOrder(reads)) {
        const Chunk& chunk = chunks_[idx];
        if (chunk.count == 0) continue;
        pending.push_back(
            runtime.queue(chunk.deviceIndex)
                .enqueueReadBuffer(chunk.buffer, 0, chunk.count * elemSize_,
                                   staging + chunk.offset * elemSize_,
                                   /*blocking=*/false, {chunk.ready}));
      }
    } catch (ocl::ClError& e) {
      e.prependContext("vector download of " + std::to_string(hostCount()) +
                       " element(s)");
      throw;
    }
    for (const ocl::Event& event : pending) {
      event.wait();
    }
  });
  devicesDirty_ = false;
}

// --- distribution ----------------------------------------------------------

void VectorState::setDistribution(Distribution dist,
                                  std::size_t singleDevice) {
  auto& runtime = Runtime::instance();
  runtime.requireInit();
  if (dist == Distribution::Single && singleDevice >= runtime.deviceCount()) {
    throw common::InvalidArgument(
        "single distribution on device " + std::to_string(singleDevice) +
        ", but the runtime has " + std::to_string(runtime.deviceCount()) +
        " device(s)");
  }
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
  chunks_.clear();
  dist_ = dist;
  singleDevice_ = singleDevice;
  hostDirty_ = true;
}

void VectorState::setDistributionCombine(const std::string& combineSource) {
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
                             trace::kNoDevice, hostBytes().size());

  ocl::Program program =
      buildCombineProgram(elementTypeName(), combineSource);

  // Failure atomicity: chunks_/dist_ are replaced only after every
  // block has been fully enqueued. A transfer or launch failure
  // mid-combine discards the half-built blocks; the vector stays
  // copy-distributed with its old chunks and host data untouched, so
  // the caller can retry the redistribution after handling the error.
  std::vector<Chunk> blocks = layoutOf(Distribution::Block, 0, hostCount());
  CommandList list("combine redistribution");
  std::vector<std::size_t> slots(blocks.size()); // each block's buffer
  std::vector<std::size_t> folded(blocks.size()); // its last command
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::size_t d = blocks[i].deviceIndex;
    const std::size_t count = blocks[i].count;
    const std::size_t offset = blocks[i].offset * elemSize_;
    const std::size_t bytes = count * elemSize_;
    slots[i] = list.scratch(d, std::max<std::size_t>(1, bytes));
    if (count == 0) {
      // This device's share rounded to zero elements; seeding or
      // folding it would enqueue zero-size device commands.
      continue;
    }
    auto copy = [&](std::size_t from, std::size_t to, std::vector<Dep> deps) {
      return list.push({.kind = Command::Kind::Copy,
                        .device = d,
                        .deps = std::move(deps),
                        .src = Operand::chunk(*this, from),
                        .dst = Operand::scratch(to),
                        .srcOffset = offset,
                        .bytes = bytes});
    };
    // Own portion seeds the block (depends on the chunk being valid).
    folded[i] = copy(d, slots[i], {chunks_[d].ready});
    // Fold in every other device's copy of the same region. Two temp
    // buffers double-buffer the pipeline: the cross-device copy of
    // portion j+1 streams over PCIe into one temp while the combine
    // kernel folds the other temp into the block.
    const std::size_t temps[2] = {list.scratch(d, bytes),
                                  list.scratch(d, bytes)};
    Dep tempFree[2]; // last kernel that *read* each temp
    std::size_t slot = 0;
    const std::size_t wg =
        effectiveWorkGroupSize(0, count, runtime.devices()[d]);
    for (std::size_t j = 0; j < devices; ++j) {
      if (j == d) {
        continue;
      }
      const std::size_t copied =
          copy(j, temps[slot], {chunks_[j].ready, tempFree[slot]});
      folded[i] = list.push(Command::launch(
          d, "skelcl_combine", count, wg,
          {Operand::scratch(slots[i]), Operand::scratch(temps[slot]),
           Operand::uint(count)},
          {Dep::on(copied), Dep::on(folded[i])}));
      tempFree[slot] = Dep::on(folded[i]);
      slot ^= 1;
    }
  }
  const Executed done = execute(list, program);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    blocks[i].buffer = done.scratch[slots[i]];
    if (blocks[i].count > 0) {
      blocks[i].ready = done.events[folded[i]];
    }
  }
  chunks_ = std::move(blocks);
  dist_ = Distribution::Block;
  devicesDirty_ = true;
}

// --- device access ---------------------------------------------------------

void VectorState::ensureOnDevices() {
  forcePending();
  Runtime::instance().requireInit();
  if (chunks_.empty()) {
    place(dist_, singleDevice_, layoutOf(dist_, singleDevice_, hostCount()));
  } else {
    // The chunks match themselves, so place keeps them without rebuilding
    // (which would clear the layout it reads) and uploads only a newer
    // host copy.
    place(dist_, singleDevice_, chunks_);
  }
}

void VectorState::place(Distribution dist, std::size_t singleDevice,
                        const std::vector<Chunk>& layout) {
  forcePending();
  const std::vector<std::size_t> keep = chunksMatching(layout);
  const bool inPlace = !keep.empty();
  std::optional<trace::ScopedHostSpan> span;
  if (inPlace) {
    // Kept chunks keep their buffer, ready event and pieces; the rest
    // are dropped. (`layout` may be chunks_ itself, which needs none.)
    if (keep.size() != chunks_.size()) {
      std::vector<Chunk> kept;
      for (std::size_t i : keep) {
        kept.push_back(std::move(chunks_[i]));
      }
      chunks_ = std::move(kept);
    }
    dist_ = dist;
    singleDevice_ = singleDevice;
    if (!hostDirty_) {
      return;
    }
  } else {
    // Replacing chunks, or uploading a vector in another distribution
    // than its own, is a redistribution staged through the host. A
    // failed download leaves the old chunks as they were.
    const bool sameDistribution =
        dist == dist_ &&
        (dist != Distribution::Single || singleDevice == singleDevice_);
    if (!chunks_.empty() || !sameDistribution) {
      span.emplace(trace::HostKind::Redistribute, "vector.redistribute");
    }
    ensureOnHost();
    dist_ = dist;
    singleDevice_ = singleDevice;
  }
  try {
    if (!inPlace) {
      allocateLayout(layout);
    }
    upload();
    hostDirty_ = false;
  } catch (ocl::ClError& e) {
    // Failure atomicity of staging: an allocation or upload failure
    // (injected or organic) may leave some chunks allocated or partially
    // written. Dropping every chunk restores the invariant "host data is
    // the truth" — the next access re-allocates and re-uploads from the
    // still-valid host copy — and the caller sees the typed exception.
    chunks_.clear();
    hostDirty_ = true;
    devicesDirty_ = false;
    e.prependContext("vector upload of " + std::to_string(hostCount()) +
                     " element(s)");
    throw;
  }
}

std::vector<std::size_t> VectorState::chunksMatching(
    const std::vector<Chunk>& layout) const {
  // The layout covers the whole vector, so chunks with its geometry hold
  // all of it, whatever distribution they were placed in: a Copy chunk
  // on device 0 is the Single layout.
  std::vector<std::size_t> keep;
  for (const Chunk& target : layout) {
    const std::size_t i = chunkIndexOn(target.deviceIndex);
    if (i == chunks_.size() || chunks_[i].offset != target.offset ||
        chunks_[i].count != target.count) {
      return {};
    }
    keep.push_back(i);
  }
  return keep;
}

std::size_t VectorState::chunkIndexOn(std::size_t deviceIndex) const {
  std::size_t i = 0;
  while (i < chunks_.size() && chunks_[i].deviceIndex != deviceIndex) {
    ++i;
  }
  return i;
}

const Chunk& VectorState::chunkForDevice(std::size_t deviceIndex) const {
  const std::size_t i = chunkIndexOn(deviceIndex);
  if (i == chunks_.size()) {
    throw common::InvalidArgument(
        "vector has no data on device " + std::to_string(deviceIndex) +
        " (distribution: " + distributionName(dist_) + ")");
  }
  return chunks_[i];
}

void VectorState::markDevicesModified() {
  COMMON_EXPECTS(!chunks_.empty(),
                 "dataOnDevicesModified: vector has no device data");
  devicesDirty_ = true;
}

ocl::Event VectorState::readyEventOn(std::size_t deviceIndex) const {
  const std::size_t i = chunkIndexOn(deviceIndex);
  return i < chunks_.size() ? chunks_[i].ready : ocl::Event();
}

void VectorState::recordEventOn(std::size_t deviceIndex,
                                const ocl::Event& event) {
  const std::size_t i = chunkIndexOn(deviceIndex);
  if (i < chunks_.size()) {
    chunks_[i].ready = event;
    chunks_[i].pieces.clear();
  }
}

UploadPieces VectorState::takeUploadPieces(std::size_t deviceIndex) {
  const std::size_t i = chunkIndexOn(deviceIndex);
  return i < chunks_.size() ? std::move(chunks_[i].pieces) : UploadPieces{};
}

void VectorState::adoptDeviceBuffer(ocl::Buffer buffer, std::size_t count,
                                    std::size_t deviceIndex,
                                    ocl::Event ready) {
  // Every host element is value-initialized, like assign(count, T{}).
  resizeHostStorage(0);
  resizeHostStorage(count);
  clearPending();
  chunks_ = layoutOf(Distribution::Single, deviceIndex, count);
  chunks_.front().buffer = std::move(buffer);
  chunks_.front().ready = std::move(ready);
  dist_ = Distribution::Single;
  singleDevice_ = deviceIndex;
  hostDirty_ = false;
  devicesDirty_ = true;
}

void VectorState::allocateOutput(Distribution dist, std::size_t singleDevice,
                                 const std::vector<Chunk>& layout) {
  // Copies each hold the whole vector; other chunks partition it.
  std::size_t count = 0;
  for (const Chunk& chunk : layout) {
    count = dist == Distribution::Copy ? chunk.count : count + chunk.count;
  }
  chunks_.clear();
  dist_ = dist;
  singleDevice_ = singleDevice;
  resizeHostStorage(count);
  allocateLayout(layout);
  hostDirty_ = false;
}

// --- private helpers -------------------------------------------------------

/// Fresh buffers with exactly the given chunk geometry.
void VectorState::allocateLayout(const std::vector<Chunk>& layout) {
  auto& runtime = Runtime::instance();
  chunks_.clear();
  for (const Chunk& reference : layout) {
    Chunk chunk;
    chunk.deviceIndex = reference.deviceIndex;
    chunk.offset = reference.offset;
    chunk.count = reference.count;
    chunk.buffer = runtime.context().createBuffer(
        runtime.devices()[chunk.deviceIndex],
        std::max<std::size_t>(1, chunk.count * elemSize_));
    chunks_.push_back(std::move(chunk));
  }
}

/// Uploads every stale chunk. Large chunks are split into kUploadPieces
/// back-to-back writes so a consumer can start computing on piece i
/// while piece i+1 still streams over PCIe (double buffering); the
/// per-piece events land in Chunk::pieces and the last one becomes
/// Chunk::ready. The H2D engine runs the pieces FIFO, so total transfer
/// time is unchanged.
void VectorState::upload() {
  const std::span<const std::byte> host = hostBytes();
  trace::ScopedHostSpan span(trace::HostKind::Transfer, "vector.upload",
                             trace::kNoDevice, host.size());
  auto& runtime = Runtime::instance();
  // Chunks live on different devices and cover disjoint ranges, so any
  // visit order is legal; under schedule fuzzing the order is shuffled.
  for (std::size_t idx : runtime.chunkVisitOrder(chunks_.size())) {
    Chunk& chunk = chunks_[idx];
    if (chunk.count == 0) continue;
    auto& queue = runtime.queue(chunk.deviceIndex);
    chunk.pieces.clear();
    const std::byte* src = host.data() + chunk.offset * elemSize_;
    const std::size_t bytes = chunk.count * elemSize_;
    // Every piece must stay >= kSplitMinBytes: each one pays the fixed
    // PCIe latency, so small pieces cost more than overlap wins.
    const std::size_t pieces = std::min(
        kUploadPieces, std::min(chunk.count, bytes / kSplitMinBytes));
    if (pieces <= 1) {
      chunk.ready = queue.enqueueWriteBuffer(chunk.buffer, 0, bytes, src);
      continue;
    }
    std::size_t begin = 0;
    for (std::size_t p = 0; p < pieces; ++p) {
      const std::size_t end =
          p + 1 == pieces ? chunk.count : (p + 1) * chunk.count / pieces;
      if (end == begin) continue;
      ocl::Event event = queue.enqueueWriteBuffer(
          chunk.buffer, begin * elemSize_, (end - begin) * elemSize_,
          src + begin * elemSize_);
      chunk.pieces.emplace_back(end, event);
      chunk.ready = event;
      begin = end;
    }
  }
}

// --- deferred-computation plumbing -----------------------------------------

void VectorState::forcePending() {
  rethrowPoison();
  if (pending_ != nullptr) {
    forceExprNode(pending_);
    // The force may have drained the scheduler, which dispatches this
    // very producer and parks its failure here instead of throwing.
    rethrowPoison();
  }
}

void VectorState::forceConsumers() {
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

void VectorState::rethrowPoison() {
  if (pendingError_ != nullptr) {
    std::exception_ptr error;
    std::swap(error, pendingError_);
    std::rethrow_exception(error);
  }
}

} // namespace skelcl::detail
