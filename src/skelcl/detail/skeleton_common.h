// Shared machinery for the command-list builders of the DAG evaluators
// (detail/expr.cpp, detail/irregular.cpp) and the copy -> block combine
// (vector_state.cpp): launch geometry, and the pipelined launch that
// lets a skeleton's slices start on split upload pieces instead of
// waiting for the whole upload.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "skelcl/detail/commands.h"
#include "skelcl/detail/runtime.h"
#include "skelcl/vector.h"

namespace skelcl::detail {

inline std::size_t roundUp(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

/// Warp width of the paper's Tesla T10: the smallest work-group SkelCL
/// picks by itself, since a smaller one would leave warp lanes idle.
constexpr std::size_t kWarpWidth = 32;

/// Resolves the work-group size of an element-wise launch of `items`
/// work items: the user's explicit choice if set, otherwise sized from
/// the launch so that a small one spreads over the device's compute
/// units instead of padding one group on one of them —
/// ceil(items / CUs) rounded up to a warp, between kWarpWidth and
/// SkelCL's default (256). A launch of at least CUs x 256 items keeps
/// 256. Either way clamped to the device limit.
inline std::size_t effectiveWorkGroupSize(std::size_t userChoice,
                                          std::size_t items,
                                          const ocl::Device& device) {
  std::size_t wanted = userChoice;
  if (wanted == 0) {
    const std::size_t cus =
        std::max<std::size_t>(1, device.spec().computeUnits);
    wanted = std::clamp(roundUp((items + cus - 1) / cus, kWarpWidth),
                        kWarpWidth,
                        Runtime::instance().defaultWorkGroupSize());
  }
  return std::min<std::size_t>(wanted, device.maxWorkGroupSize());
}

/// Event of the upload piece that covers host elements [0, elemEnd).
/// Pieces run FIFO on the H2D engine, so the first piece whose end
/// reaches elemEnd completes after every earlier piece.
inline ocl::Event pieceCovering(const UploadPieces& pieces,
                                std::size_t elemEnd) {
  for (const auto& piece : pieces) {
    if (piece.first >= elemEnd) {
      return piece.second;
    }
  }
  return pieces.empty() ? ocl::Event() : pieces.back().second;
}

/// Appends one logical launch to `list`: `launch` over `groups` work-groups
/// of size `wg`, in which group g reads elements [g*span, (g+1)*span) of
/// `count`, split into group-range sub-launches pipelined against split
/// upload pieces: slice i starts as soon as the pieces covering its
/// elements have landed, while later pieces still stream over PCIe
/// (double buffering). Slice boundaries are the groups a piece end fully
/// covers (the last slice absorbs the rest), so the slices partition the
/// unsplit ND-range exactly — every work item runs once with the same
/// global id, keeping total kernel cycles invariant; no slice reads
/// elements its dependency pieces have not delivered. A kernel that
/// derives its group index from the global id (the fused reduce's first
/// pass) computes bit-identical per-group results either way. With no
/// multi-piece list this degenerates to the plain single launch. Only the
/// last slice records (Command::records); returns its index.
///
/// `baseDeps` must NOT contain the ready events of chunks whose piece
/// lists are passed here (that event is the *last* piece — depending on
/// it from every slice would serialize the pipeline).
///
/// Splitting is skipped when a slice would hold fewer than
/// `minGroupsPerSlice` groups. Element-wise launches ask for a few waves
/// of work-groups per compute unit: small launches suffer wave
/// quantization (the tail effect — a launch of ~1 group per CU runs as
/// long as its slowest CU with nothing to backfill), which costs a
/// compute-bound kernel far more than transfer overlap can win back.
/// Memory-bound launches — where overlap pays — have their duration set
/// by bytes moved, which splits exactly linearly. A tree reduction's
/// first pass, whose few groups each stream a long span, asks only that
/// each piece unlock whole groups.
inline std::size_t launchPipelined(CommandList& list, Command launch,
                                   std::size_t groups, std::size_t wg,
                                   std::size_t span, std::size_t count,
                                   std::size_t minGroupsPerSlice,
                                   const std::vector<Dep>& baseDeps,
                                   const std::vector<UploadPieces>& pieces) {
  const UploadPieces* driver = nullptr;
  for (const UploadPieces& p : pieces) {
    if (p.size() > 1 && (driver == nullptr || p.size() > driver->size())) {
      driver = &p;
    }
  }
  launch.records = true;
  if (driver == nullptr || groups < driver->size() * minGroupsPerSlice) {
    launch.deps = baseDeps;
    for (const UploadPieces& p : pieces) {
      if (!p.empty()) {
        launch.deps.push_back(p.back().second);
      }
    }
    return list.push(std::move(launch));
  }
  const std::size_t items = launch.items;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < driver->size(); ++i) {
    const std::size_t end = i + 1 == driver->size()
                                ? groups
                                : std::min(groups, (*driver)[i].first / span);
    if (end <= begin) {
      continue; // piece smaller than a group: the next slice absorbs it
    }
    Command slice = launch;
    slice.records = end == groups;
    slice.range = ocl::NDRange1D{(end - begin) * wg, wg, begin * wg};
    slice.items = std::min(end * wg, items) - std::min(begin * wg, items);
    slice.deps = baseDeps;
    for (const UploadPieces& p : pieces) {
      slice.deps.push_back(pieceCovering(p, std::min(end * span, count)));
    }
    list.push(std::move(slice));
    begin = end;
  }
  return list.commands.size() - 1;
}

} // namespace skelcl::detail
