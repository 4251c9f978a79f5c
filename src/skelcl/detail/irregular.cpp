// Placement and evaluators for the irregular skeleton roots. Each
// evaluator builds its call's command list (appendStencil, appendSparse)
// and executes it; each call runs in the layout its placement forecast
// to finish first, spread over the devices or on one device, and the
// forecast replays the same builder's list for each candidate layout,
// after the staging that layout needs (appendStaging), with per-item
// costs probed from the call's kernels (DESIGN.md §6i).
//
// Stencil — spread, block-distributes the input on *row-aligned* chunk
// boundaries; each chunk packs a halo-padded buffer, receives its halo
// rows from its neighbors' packs and computes (appendStencil). A grid
// with fewer rows than the radius on some device, like an empty one,
// always runs on one device.
//
// SparseGather — spread, the matrix rows are block-partitioned (CsrState
// placed its three arrays in that partition) and the dense operand is
// copy-distributed; on one device all four live there. One work-item
// folds one row's gathered values with the combine function. No
// inter-device traffic: the gather indexes the whole operand.
#include "skelcl/detail/irregular.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "clc/vm.h"
#include "common/error.h"
#include "skelcl/detail/csr_state.h"
#include "skelcl/detail/runtime.h"
#include "skelcl/detail/skeleton_common.h"
#include "skelcl/detail/source_utils.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl::detail {

namespace {

enum Boundary { kClamp = 0, kWrap = 1, kConstant = 2 };

/// Name Arguments::declSuffix("cv_") gives the constant fill value.
constexpr const char* kConstValue = "skelcl_cv_arg0";

// --- stencil codegen -----------------------------------------------------

/// Statements resolving `skelcl_g` (a signed row — or 1D element — index
/// that may lie outside [0, total)) per the boundary policy and
/// assigning `skelcl_v` from `load`. Constant loads the fill argument on
/// the out-of-range side instead.
std::string resolveEdge(int boundary, const std::string& load,
                        const std::string& indent) {
  switch (boundary) {
    case kWrap:
      return indent + "if (skelcl_g < 0) skelcl_g += (int)skelcl_total;\n" +
             indent +
             "if (skelcl_g >= (int)skelcl_total) skelcl_g -= "
             "(int)skelcl_total;\n" +
             indent + "skelcl_v = " + load + ";\n";
    case kConstant:
      return indent +
             "if (skelcl_g < 0 || skelcl_g >= (int)skelcl_total) {\n" +
             indent + "  skelcl_v = " + std::string(kConstValue) + ";\n" +
             indent + "} else {\n" + indent + "  skelcl_v = " + load +
             ";\n" + indent + "}\n";
    default: // clamp
      return indent + "if (skelcl_g < 0) skelcl_g = 0;\n" + indent +
             "if (skelcl_g >= (int)skelcl_total) skelcl_g = "
             "(int)skelcl_total - 1;\n" +
             indent + "skelcl_v = " + load + ";\n";
  }
}

/// The pack kernel fills padded element range [p0, p0+pn) of the chunk's
/// halo-padded buffer from the chunk's own data: padded row p holds grid
/// row base + p - R, its columns padded and any out-of-grid coordinate
/// resolved per the boundary policy (single-device wrap, the clamp and
/// constant edges). A padded row is thus a pure function of its grid row
/// and the policy, whichever chunk packs it — which is what lets a
/// neighbor's packed rows be copied verbatim into this chunk's halo.
std::string packKernelSource(const StencilParams& P, const std::string& t) {
  const std::size_t W = P.width == 0 ? 1 : P.width;
  const bool is2D = P.width > 0;
  const std::string R = std::to_string(P.radius);
  const std::string Wu = std::to_string(W) + "u";
  const std::string PWu = std::to_string(is2D ? W + 2 * P.radius : 1) + "u";

  std::string src =
      "\n__kernel void skelcl_stencil_pack(__global const " + t +
      "* skelcl_in, __global " + t +
      "* skelcl_pad, uint skelcl_p0, uint skelcl_pn, uint skelcl_base, "
      "uint skelcl_total" +
      P.constArg.declSuffix("cv_") +
      ") {\n"
      "  size_t skelcl_gid = get_global_id(0);\n"
      "  if (skelcl_gid < skelcl_pn) {\n"
      "    uint skelcl_idx = skelcl_p0 + (uint)skelcl_gid;\n"
      "    " + t + " skelcl_v;\n";

  if (!is2D) {
    src += "    int skelcl_g = (int)(skelcl_base + skelcl_idx) - " + R +
           ";\n" +
           resolveEdge(P.boundary, "skelcl_in[(uint)skelcl_g - skelcl_base]",
                       "    ");
  } else {
    const std::string rowPart =
        "      int skelcl_g = (int)(skelcl_base + skelcl_p) - " + R + ";\n" +
        resolveEdge(P.boundary,
                    "skelcl_in[((uint)skelcl_g - skelcl_base) * " + Wu +
                        " + (uint)skelcl_c]",
                    "      ");
    src +=
        "    uint skelcl_p = skelcl_idx / " + PWu + ";\n"
        "    uint skelcl_q = skelcl_idx - skelcl_p * " + PWu + ";\n"
        "    int skelcl_c = (int)skelcl_q - " + R + ";\n";
    const std::string Wi = std::to_string(W);
    switch (P.boundary) {
      case kWrap:
        src += "    if (skelcl_c < 0) skelcl_c += " + Wi +
               ";\n"
               "    if (skelcl_c >= " + Wi + ") skelcl_c -= " + Wi +
               ";\n" +
               rowPart;
        break;
      case kConstant:
        src += "    if (skelcl_c < 0 || skelcl_c >= " + Wi +
               ") {\n"
               "      skelcl_v = " + std::string(kConstValue) +
               ";\n"
               "    } else {\n" +
               rowPart + "    }\n";
        break;
      default: // clamp
        src += "    if (skelcl_c < 0) skelcl_c = 0;\n"
               "    if (skelcl_c >= " + Wi + ") skelcl_c = " + Wi +
               " - 1;\n" +
               rowPart;
        break;
    }
  }
  src +=
      "    skelcl_pad[skelcl_idx] = skelcl_v;\n"
      "  }\n"
      "}\n";
  return src;
}

/// The compute kernel applies the user function to `en` output cells
/// starting at local row r0, jumping `skip` rows once it reaches row R —
/// so one launch covers both R-row borders of a chunk, [0, R) and
/// [rows - R, rows), with skip = rows - 2R. It receives a pointer to the
/// window's top-left corner in the padded buffer (plus the padded row
/// stride in 2D), so the function indexes the window relative to its own
/// position — the classic out-of-place stencil contract, center at
/// offset R (1D) or (R, R) (2D).
std::string computeKernelSource(const StencilParams& P, const std::string& t,
                                const std::string& funcName,
                                const std::string& argDecls,
                                const std::string& callSuffix) {
  const bool is2D = P.width > 0;
  const std::string Ru = std::to_string(P.radius) + "u";
  std::string src = "\n__kernel void skelcl_stencil(__global const " + t +
                    "* skelcl_pad, __global " + t +
                    "* skelcl_out, uint skelcl_r0, uint skelcl_en, "
                    "uint skelcl_skip" +
                    argDecls +
                    ") {\n"
                    "  size_t skelcl_gid = get_global_id(0);\n"
                    "  if (skelcl_gid < skelcl_en) {\n";
  if (!is2D) {
    src += "    uint skelcl_i = skelcl_r0 + (uint)skelcl_gid;\n"
           "    if (skelcl_i >= " + Ru + ") skelcl_i += skelcl_skip;\n"
           "    skelcl_out[skelcl_i] = " + funcName +
           "(skelcl_pad + skelcl_i" + callSuffix + ");\n";
  } else {
    const std::string Wu = std::to_string(P.width) + "u";
    const std::string PWu = std::to_string(P.width + 2 * P.radius) + "u";
    src += "    uint skelcl_j = skelcl_r0 + (uint)skelcl_gid / " + Wu +
           ";\n"
           "    if (skelcl_j >= " + Ru + ") skelcl_j += skelcl_skip;\n"
           "    uint skelcl_c = (uint)skelcl_gid % " + Wu +
           ";\n"
           "    skelcl_out[(size_t)skelcl_j * " + Wu +
           " + skelcl_c] = " + funcName + "(skelcl_pad + ((size_t)skelcl_j * " +
           PWu + " + skelcl_c), " + PWu + callSuffix + ");\n";
  }
  src += "  }\n"
         "}\n";
  return src;
}

/// Index of the chunk whose rows cover `row` (chunks are ascending and
/// contiguous, and `row` lies in the grid).
std::size_t chunkContainingRow(const std::vector<Chunk>& chunks,
                               std::size_t row, std::size_t W) {
  std::size_t i = 0;
  while (row >= (chunks[i].offset + chunks[i].count) / W) {
    ++i;
  }
  return i;
}

/// The chunk of `layout` on `device` (a layout has at most one).
const Chunk& chunkOn(const std::vector<Chunk>& layout, std::size_t device) {
  return *std::find_if(layout.begin(), layout.end(), [&](const Chunk& c) {
    return c.deviceIndex == device;
  });
}

// An irregular root is opaque to fusion, so its plan is the root alone
// with its user names untouched: the program follows from the node, and
// placement builds the same program the evaluation runs.

std::string stencilProgramSource(const ExprNode& node) {
  const StencilParams& P = *node.stencil;
  return registeredTypeDefinitions() + node.function->source() + "\n" +
         packKernelSource(P, node.outType) +
         computeKernelSource(P, node.outType, node.function->name(),
                             node.args.declSuffix(""),
                             node.args.callSuffix(""));
}

std::string sparseProgramSource(const ExprNode& node) {
  const std::string& t = node.outType;
  const UserFunction& combine = *node.sparse->combine;
  return registeredTypeDefinitions() + node.function->source() + "\n" +
         combine.source() + "\n" +
         "\n__kernel void skelcl_spgather(__global const uint* "
         "skelcl_rowptr, __global const uint* skelcl_colidx, "
         "__global const " + t + "* skelcl_vals, __global const " + t +
         "* skelcl_x, __global " + t +
         "* skelcl_out, uint skelcl_rows, uint skelcl_nnzbase" +
         node.args.declSuffix("") +
         ") {\n"
         "  size_t skelcl_i = get_global_id(0);\n"
         "  if (skelcl_i < skelcl_rows) {\n"
         "    " + t + " skelcl_acc = " + node.identityExpr +
         ";\n"
         "    uint skelcl_b = skelcl_rowptr[skelcl_i] - skelcl_nnzbase;\n"
         "    uint skelcl_e = skelcl_rowptr[skelcl_i + 1] - "
         "skelcl_nnzbase;\n"
         "    for (uint skelcl_k = skelcl_b; skelcl_k < skelcl_e; "
         "++skelcl_k) {\n"
         "      skelcl_acc = " + combine.name() +
         "(skelcl_acc, " + node.function->name() +
         "(skelcl_vals[skelcl_k], skelcl_x[skelcl_colidx[skelcl_k]]" +
         node.args.callSuffix("") +
         "));\n"
         "    }\n"
         "    skelcl_out[skelcl_i] = skelcl_acc;\n"
         "  }\n"
         "}\n";
}

/// A stencil chunk's rows, first grid row, and which halos it receives:
/// none on one device; in row-aligned blocks, one from each neighbor
/// chunk (around the grid's edges too under wrap).
struct Geometry {
  std::size_t rows, rowBase;
  bool hasTop, hasBot;
};

Geometry geometryOf(const Chunk& c, const StencilParams& P, bool multi,
                    std::size_t totalRows) {
  const std::size_t W = P.width > 0 ? P.width : 1;
  const bool wrap = P.boundary == kWrap;
  const std::size_t rows = c.count / W;
  const std::size_t rowBase = c.offset / W;
  return Geometry{rows, rowBase, multi && (rowBase > 0 || wrap),
                  multi && (rowBase + rows < totalRows || wrap)};
}

/// Appends the commands of a stencil over `in` in the layout `chunks`,
/// in the order runStencil issues them — and the layout forecast replays
/// them; `ready` says when a chunk's data is on its device. Pass 1: each
/// chunk packs every padded row its own data determines (its rows, and
/// the policy-resolved rows beyond a grid edge it owns) into a scratch
/// halo-padded buffer; rows that come from a neighbor are left to pass 2.
/// Pass 2, per chunk: the halo copies, each R packed rows of the
/// neighbor's padded buffer pad-to-pad and dependent on the neighbor's
/// pack; the interior rows [R, rows - R), which need only the chunk's own
/// pack and so overlap the copies; and one border launch covering rows
/// [0, R) and [rows - R, rows) once the halos land. A chunk of at most 2R
/// rows is all border, and one without a halo computes all its rows in
/// the single launch. Chunks are visited in `order`.
void appendStencil(CommandList& list, const ExprNode& node,
                   const VectorState& in, const std::vector<Chunk>& chunks,
                   bool multi, const std::vector<std::size_t>& order,
                   const ReadyOf& ready) {
  const StencilParams& P = *node.stencil;
  const std::size_t R = P.radius;
  const std::size_t W = P.width > 0 ? P.width : 1;
  const std::size_t pw = P.width > 0 ? W + 2 * R : 1; // padded row length
  const std::size_t elem = node.outElemSize;
  const std::size_t totalRows = in.size() / W;
  const auto& devices = Runtime::instance().devices();
  auto launch = [&](std::size_t d, const char* kernel, std::size_t items,
                    std::vector<Operand> args, std::vector<Dep> deps) {
    return Command::launch(
        d, kernel, items,
        effectiveWorkGroupSize(node.workGroupSize, items, devices[d]),
        std::move(args), std::move(deps));
  };
  std::vector<std::size_t> pads(chunks.size());
  std::vector<std::size_t> packed(chunks.size());
  for (std::size_t idx : order) {
    const Chunk& chunk = chunks[idx];
    if (chunk.count == 0) {
      continue;
    }
    const std::size_t d = chunk.deviceIndex;
    const Geometry g = geometryOf(chunk, P, multi, totalRows);
    const std::size_t p0 = g.hasTop ? R * pw : 0;
    const std::size_t count =
        (g.rows + 2 * R) * pw - p0 - (g.hasBot ? R * pw : 0);
    pads[idx] = list.scratch(d, (g.rows + 2 * R) * pw * elem);
    packed[idx] = list.push(launch(
        d, "skelcl_stencil_pack", count,
        {Operand::chunk(in, d), Operand::scratch(pads[idx]),
         Operand::uint(p0), Operand::uint(count), Operand::uint(g.rowBase),
         Operand::uint(totalRows), Operand::arguments(P.constArg)},
        {ready(in, d)}));
  }
  for (std::size_t idx : order) {
    const Chunk& chunk = chunks[idx];
    if (chunk.count == 0) {
      continue;
    }
    const std::size_t d = chunk.deviceIndex;
    const Geometry g = geometryOf(chunk, P, multi, totalRows);
    // What the border launch waits for besides the chunk's own pack: the
    // halo copies and the interior launch.
    std::vector<Dep> borderDeps{Dep::on(packed[idx])};
    // Issued on the *destination* queue, a halo copy occupies the
    // source's D2H and this device's H2D engine and leaves the compute
    // engine to the interior launch.
    auto halo = [&](std::size_t srcRow, std::size_t dstPadRow) {
      const std::size_t s = chunkContainingRow(chunks, srcRow, W);
      borderDeps.push_back(Dep::on(list.push(
          {.kind = Command::Kind::Copy,
           .device = d,
           .deps = {Dep::on(packed[s])},
           .src = Operand::scratch(pads[s]),
           .dst = Operand::scratch(pads[idx]),
           .srcOffset = (srcRow - chunks[s].offset / W + R) * pw * elem,
           .dstOffset = dstPadRow * pw * elem,
           .bytes = R * pw * elem,
           .counter = "halo_bytes"})));
    };
    if (g.hasTop) {
      halo(g.rowBase > 0 ? g.rowBase - R : totalRows - R, 0);
    }
    if (g.hasBot) {
      const std::size_t next = g.rowBase + g.rows;
      halo(next < totalRows ? next : 0, g.rows + R);
    }
    // Each compute launch is sized by its own item count.
    auto compute = [&](std::size_t begin, std::size_t rows, std::size_t skip,
                       std::vector<Dep> deps) {
      node.args.collectDeps(deps, d);
      return launch(d, "skelcl_stencil", rows * W,
                    {Operand::scratch(pads[idx]), Operand::output(),
                     Operand::uint(begin), Operand::uint(rows * W),
                     Operand::uint(skip), Operand::arguments(node.args)},
                    std::move(deps));
    };
    const std::size_t border =
        g.hasTop || g.hasBot ? std::min(g.rows, 2 * R) : g.rows;
    if (g.rows > border) {
      borderDeps.push_back(Dep::on(list.push(
          compute(R, g.rows - border, 0, {Dep::on(packed[idx])}))));
    }
    Command last = compute(0, border, g.rows - border, std::move(borderDeps));
    last.records = true;
    list.push(std::move(last));
  }
}

// --- layout by predicted finish -------------------------------------------

/// The cost of work-item 0 of a one-item launch of kernel `name`, run on
/// the host over scratch memory, outside any queue: it touches no device
/// and no virtual time. The kernel's leading __global parameters read
/// `buffers`, the uint parameters after them get `uints`, and `extra`
/// binds the call's scalar and struct arguments; every other parameter
/// reads zero (a Vector argument an empty buffer). The item sees the
/// window or row it is given — a function whose loops run a fixed number
/// of times costs what every item costs — and one that traps there is
/// costed as free, so the call is judged by its launches and transfers.
ItemCost probeItem(const ocl::Program& program, const char* name,
                   std::vector<std::vector<std::uint8_t>> buffers,
                   const std::vector<std::uint32_t>& uints,
                   const Arguments& extra) {
  ocl::Kernel kernel = program.createKernel(name);
  std::size_t at = buffers.size();
  for (const std::uint32_t u : uints) {
    kernel.setArg(at++, u);
  }
  extra.applyValues(kernel, at);
  const std::vector<clc::ParamInfo>& params =
      kernel.program().functions[kernel.kernelInfo().functionIndex].params;
  buffers.resize(params.size());
  std::vector<clc::Segment> segments;
  std::vector<clc::KernelArgValue> args;
  for (std::size_t i = 0; i < params.size(); ++i) {
    clc::KernelArgValue value = kernel.stagedArgs()[i].value;
    if (params[i].kind == clc::ParamKind::GlobalPtr) {
      value.kind = clc::KernelArgValue::Kind::Buffer;
      value.segmentIndex = std::uint32_t(segments.size());
      segments.push_back({buffers[i].data(), buffers[i].size()});
    }
    args.push_back(std::move(value));
  }
  try {
    const clc::LaunchStats stats = clc::executeKernel(
        kernel.program(), name, clc::NDRange{}, args, segments, nullptr);
    return {double(stats.totalCycles),
            double(stats.globalBytesRead + stats.globalBytesWritten)};
  } catch (const clc::TrapError&) {
    return {};
  }
}

/// `elems` zero elements of `elem` bytes.
std::vector<std::uint8_t> zeros(std::size_t elems, std::size_t elem) {
  return std::vector<std::uint8_t>(elems * elem);
}

/// Appends what place(..., layout) of `v` moves because the data sits in
/// another layout — a download of newer device data, which the host
/// waits for, then one upload per chunk — and returns, per device, the
/// upload its chunk waits for. A newer host copy crosses PCIe once
/// whichever layout takes it, so that upload is left out: a layout is
/// judged by what a call in it costs (an iterated stencil pays the upload
/// once and the layout every step), plus what leaving the data's current
/// layout costs.
std::vector<Dep> appendStaging(CommandList& list, const VectorState& v,
                               const std::vector<Chunk>& layout) {
  std::vector<Dep> ready(Runtime::instance().deviceCount());
  if (v.hostDirty() || v.holds(layout)) {
    return ready;
  }
  auto transfer = [&](Command::Kind kind, const Chunk& c) {
    const Operand chunk = Operand::chunk(v, c.deviceIndex);
    return list.push({.kind = kind,
                      .device = c.deviceIndex,
                      .src = chunk,
                      .dst = chunk,
                      .bytes = c.count * v.elementSize()});
  };
  if (v.devicesDirty()) {
    std::vector<std::size_t> downloads;
    for (const Chunk& c : v.chunks()) {
      downloads.push_back(transfer(Command::Kind::Read, c));
      if (v.distribution() == Distribution::Copy) {
        break; // every copy is equal: the first is read
      }
    }
    list.waits = std::move(downloads);
  }
  for (const Chunk& c : layout) {
    if (c.count > 0) {
      ready[c.deviceIndex] = Dep::on(transfer(Command::Kind::Write, c));
    }
  }
  return ready;
}

/// The forecast never finishes: the layout cannot run the call.
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// The per-item costs of a stencil's pack and compute kernels: packing
/// the first cell of a one-row grid, and computing an interior cell (row
/// R of a chunk, which takes the border launch's row jump test) over a
/// zero window.
std::pair<ItemCost, ItemCost> stencilItemCosts(const ExprNode& node) {
  const ocl::Program program =
      Runtime::instance().programFor(stencilProgramSource(node));
  const StencilParams& P = *node.stencil;
  const std::size_t R = P.radius;
  const std::size_t W = P.width > 0 ? P.width : 1;
  const std::size_t pw = P.width > 0 ? W + 2 * R : 1;
  const std::size_t elem = node.outElemSize;
  const std::uint32_t first = std::uint32_t(R * pw + (P.width > 0 ? R : 0));
  return {probeItem(program, "skelcl_stencil_pack",
                    {zeros(1, elem), zeros((2 * R + 1) * pw, elem)},
                    {first, 1, 0, 1}, P.constArg),
          probeItem(program, "skelcl_stencil",
                    {zeros((3 * R + 1) * pw, elem), zeros((R + 1) * W, elem)},
                    {std::uint32_t(R), 1, 0}, node.args)};
}

/// When `in` placed in `layout` and the stencil's commands in it would
/// finish, each item billed as `costs` (pack, compute).
std::uint64_t forecastStencil(const VectorState& in, const ExprNode& node,
                              const std::vector<Chunk>& layout, bool multi,
                              const std::pair<ItemCost, ItemCost>& costs) {
  CommandList list;
  const std::vector<Dep> staged = appendStaging(list, in, layout);
  std::vector<std::size_t> order(layout.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  appendStencil(list, node, in, layout, multi, order,
                [&](const VectorState&, std::size_t d) { return staged[d]; });
  return replay(list, [&](const Command& c) {
    return std::string_view(c.kernel) == "skelcl_stencil_pack"
               ? costs.first
               : costs.second;
  });
}

/// The layout forecast to finish a call over `v` first: spread over the
/// devices when `feasible` and its multi-device forecast finishes first,
/// else on the returned home device (one device wins a tie). The home is
/// the device that holds `v` — a Single vector with current device data,
/// where it was placed or where its pending producer ran — else the
/// device on which the call, started once that device's compute engine
/// frees, would finish first (the lowest index on a tie): on identical
/// devices the one whose compute engine frees first, while a slower one
/// must be that much sooner free. `forecasts()` makes the call's
/// forecast function, (spread, device) -> ns; forecasts are made wherever
/// they are read — to choose, or with `record` to file the choice, named
/// `spread` or `single` and carrying both forecasts.
template <typename MakeForecast>
std::pair<bool, std::size_t> chooseLayout(const VectorState& v, bool feasible,
                                          bool record, const char* spread,
                                          const char* single,
                                          const MakeForecast& forecasts) {
  auto& runtime = Runtime::instance();
  std::size_t home = 0;
  std::uint64_t multiNs = kNever;
  std::uint64_t singleNs = 0;
  if (runtime.deviceCount() > 1 || (record && trace::Recorder::enabled())) {
    const auto forecast = forecasts();
    if (v.distribution() == Distribution::Single && !v.hostDirty()) {
      home = v.singleDeviceIndex();
    } else {
      std::uint64_t bestNs = kNever;
      for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
        const std::uint64_t ns =
            runtime.devices()[d].state().readyTimeNs(ocl::Engine::Compute) +
            forecast(false, d);
        if (d == 0 || ns < bestNs) {
          home = d;
          bestNs = ns;
        }
      }
    }
    singleNs = forecast(false, home);
    if (feasible) {
      multiNs = forecast(true, 0);
    }
  }
  const bool multi = multiNs < singleNs;
  if (record) {
    trace::recordDecision(multi ? spread : single, multiNs, singleNs);
  }
  return {multi, home};
}

} // namespace

void placeStencilInput(VectorState& in, const ExprNode& node, bool record) {
  auto& runtime = Runtime::instance();
  const StencilParams& P = *node.stencil;
  const std::size_t W = P.width > 0 ? P.width : 1;
  const std::size_t n = in.size();
  COMMON_CHECK(n % W == 0); // validated at the call site
  // Row-aligned blocks split whole rows (a 2D stencil must not cut a grid
  // row across devices), and each halo must be one contiguous copy from
  // exactly one neighbor chunk: a layout with a share below the radius
  // cannot run the call, and neither can one device's blocks.
  const std::vector<Chunk> blocks =
      layoutOf(Distribution::Block, 0, n / W, W);
  const bool feasible =
      runtime.deviceCount() > 1 &&
      std::all_of(blocks.begin(), blocks.end(), [&](const Chunk& c) {
        return c.count >= P.radius * W;
      });
  const auto [spread, home] = chooseLayout(
      in, feasible, record, "stencil.layout: row-aligned",
      "stencil.layout: single-device", [&] {
        return [&, costs = stencilItemCosts(node)](bool multi, std::size_t d) {
          return forecastStencil(
              in, node, multi ? blocks : layoutOf(Distribution::Single, d, n),
              multi, costs);
        };
      });
  // An iterated stencil keeps its chunks after the first step (place's
  // same-layout case) and stays resident.
  if (spread) {
    in.place(Distribution::Block, 0, blocks);
  } else {
    in.place(Distribution::Single, home,
             layoutOf(Distribution::Single, home, n));
  }
}

void runStencil(const std::shared_ptr<ExprNode>& node,
                const std::shared_ptr<VectorState>& out,
                const FusionPlan& plan, Runtime& runtime) {
  VectorState& in = *plan.leaves.front();
  // Placement chose the layout: row-aligned blocks or one device.
  const bool multi = in.distribution() == Distribution::Block;
  prepareStageArguments(plan);
  out->allocateOutput(in.distribution(), in.singleDeviceIndex(), in.chunks());

  ocl::Program program = runtime.programFor(stencilProgramSource(*node));
  CommandList list(plan.label + " skeleton", out.get());
  appendStencil(list, *node, in, in.chunks(), multi,
                runtime.chunkVisitOrder(in.chunks().size()), chunkReady);
  execute(list, program);
  out->markDevicesModified();
}

std::pair<std::vector<Chunk>, std::vector<Chunk>> CsrState::layouts(
    Distribution dist, std::size_t device) const {
  // Device d's rows [rowBegin, rowBegin + rowCount) need rowCount + 1
  // row pointers and the nonzeros [rowPtr[rowBegin], rowPtr[rowEnd]).
  const std::vector<std::uint32_t>& ptr = rowPtr_.rawHost();
  std::vector<Chunk> ptrLayout = layoutOf(dist, device, rows_);
  std::vector<Chunk> nnzLayout = ptrLayout;
  for (std::size_t i = 0; i < ptrLayout.size(); ++i) {
    Chunk& rows = ptrLayout[i];
    nnzLayout[i].offset = ptr[rows.offset];
    nnzLayout[i].count = ptr[rows.offset + rows.count] - ptr[rows.offset];
    rows.count += 1;
  }
  return {std::move(ptrLayout), std::move(nnzLayout)};
}

void CsrState::place(Distribution dist, std::size_t device) {
  const auto [ptrLayout, nnzLayout] = layouts(dist, device);
  rowPtr_.place(dist, device, ptrLayout);
  colIdx_.place(dist, device, nnzLayout);
  values_->place(dist, device, nnzLayout);
}

namespace {

/// A gather row's cost as `base` plus `perNonzero` for each of its
/// nonzeros: probes of a row with none and with one nonzero (zero
/// values, column 0).
struct RowCost {
  ItemCost base, perNonzero;
};

RowCost sparseRowCost(const ExprNode& node, std::size_t elem) {
  const ocl::Program program =
      Runtime::instance().programFor(sparseProgramSource(node));
  auto row = [&](std::uint32_t nnz) {
    std::vector<std::uint8_t> rowPtr(2 * sizeof(std::uint32_t));
    std::memcpy(rowPtr.data() + sizeof(std::uint32_t), &nnz, sizeof nnz);
    return probeItem(program, "skelcl_spgather",
                     {std::move(rowPtr), zeros(nnz, sizeof(std::uint32_t)),
                      zeros(nnz, elem), zeros(1, elem), zeros(1, elem)},
                     {1, 0}, node.args);
  };
  const ItemCost empty = row(0);
  const ItemCost one = row(1);
  return {empty, {std::max(0.0, one.cycles - empty.cycles),
                  std::max(0.0, one.bytes - empty.bytes)}};
}

/// Appends the gather launches over the row layout `ptrLayout` (its
/// nonzeros in `nnzLayout`, one chunk per device), chunks visited in
/// `order`; `ready` says when an operand's chunk is on its device.
void appendSparse(CommandList& list, const ExprNode& node,
                  const VectorState& x, const std::vector<Chunk>& ptrLayout,
                  const std::vector<Chunk>& nnzLayout,
                  const std::vector<std::size_t>& order,
                  const ReadyOf& ready) {
  const CsrState& csr = *node.sparse->csr;
  const auto& devices = Runtime::instance().devices();
  for (std::size_t idx : order) {
    const std::size_t d = ptrLayout[idx].deviceIndex;
    const std::size_t rows = ptrLayout[idx].count - 1;
    if (rows == 0) {
      continue; // zero-row share (more devices than rows): no launch
    }
    // The nonzero slice starts at absolute nonzero `offset`.
    const std::size_t offset = chunkOn(nnzLayout, d).offset;
    std::vector<Dep> deps{ready(csr.rowPtr(), d), ready(csr.colIdx(), d),
                          ready(csr.values(), d), ready(x, d)};
    node.args.collectDeps(deps, d);
    Command gather = Command::launch(
        d, "skelcl_spgather", rows,
        effectiveWorkGroupSize(node.workGroupSize, rows, devices[d]),
        {Operand::chunk(csr.rowPtr(), d), Operand::chunk(csr.colIdx(), d),
         Operand::chunk(csr.values(), d), Operand::chunk(x, d),
         Operand::output(), Operand::uint(rows), Operand::uint(offset),
         Operand::arguments(node.args)},
        std::move(deps));
    gather.records = true;
    list.push(std::move(gather));
  }
}

/// When the matrix and `x` placed for rows in `dist` (x replicated with
/// Block rows, on `device` with Single) and the gather launches would
/// finish, each row billed as `cost` at its chunk's mean nonzeros.
std::uint64_t forecastSparse(const VectorState& x, const ExprNode& node,
                             Distribution dist, std::size_t device,
                             const RowCost& cost) {
  const CsrState& csr = *node.sparse->csr;
  CommandList list;
  const auto [ptrLayout, nnzLayout] = csr.layouts(dist, device);
  std::map<const VectorState*, std::vector<Dep>> staged;
  staged[&csr.rowPtr()] = appendStaging(list, csr.rowPtr(), ptrLayout);
  staged[&csr.colIdx()] = appendStaging(list, csr.colIdx(), nnzLayout);
  staged[&csr.values()] = appendStaging(list, csr.values(), nnzLayout);
  staged[&x] = appendStaging(
      list, x,
      dist == Distribution::Block
          ? layoutOf(Distribution::Copy, 0, x.size())
          : layoutOf(Distribution::Single, device, x.size()));
  std::vector<std::size_t> order(ptrLayout.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  appendSparse(
      list, node, x, ptrLayout, nnzLayout, order,
      [&](const VectorState& v, std::size_t d) { return staged[&v][d]; });
  return replay(list, [&](const Command& c) {
    const double perRow =
        double(chunkOn(nnzLayout, c.device).count) / double(c.items);
    return ItemCost{cost.base.cycles + perRow * cost.perNonzero.cycles,
                    cost.base.bytes + perRow * cost.perNonzero.bytes};
  });
}

} // namespace

void placeSparseOperands(VectorState& x, const ExprNode& node, bool record) {
  auto& runtime = Runtime::instance();
  CsrState& csr = *node.sparse->csr;
  const auto [spread, home] = chooseLayout(
      x, runtime.deviceCount() > 1, record, "sparse.layout: replicated",
      "sparse.layout: single-device", [&] {
        return [&, cost = sparseRowCost(node, x.elementSize())](
                   bool multi, std::size_t d) {
          return forecastSparse(
              x, node, multi ? Distribution::Block : Distribution::Single, d,
              cost);
        };
      });
  // Replicated, the gather may touch any column on any device; the rows
  // are block-partitioned (block weights are fixed for an init() cycle).
  if (spread) {
    csr.place(Distribution::Block, 0);
    x.place(Distribution::Copy, 0, layoutOf(Distribution::Copy, 0, x.size()));
  } else {
    csr.place(Distribution::Single, home);
    x.place(Distribution::Single, home,
            layoutOf(Distribution::Single, home, x.size()));
  }
}

void runSparseGather(const std::shared_ptr<ExprNode>& node,
                     const std::shared_ptr<VectorState>& out,
                     const FusionPlan& plan, Runtime& runtime) {
  // Placement chose the layout: block-partitioned rows with the dense
  // operand replicated, or everything on one device. The output takes
  // the matrix's row layout.
  const CsrState& csr = *node->sparse->csr;
  const VectorState& rowPtr = csr.rowPtr();
  prepareStageArguments(plan);

  out->allocateOutput(
      rowPtr.distribution(), rowPtr.singleDeviceIndex(),
      layoutOf(rowPtr.distribution(), rowPtr.singleDeviceIndex(),
               csr.rows()));

  ocl::Program program = runtime.programFor(sparseProgramSource(*node));
  CommandList list(plan.label + " skeleton", out.get());
  appendSparse(list, *node, *plan.leaves.front(), rowPtr.chunks(),
               csr.colIdx().chunks(),
               runtime.chunkVisitOrder(rowPtr.chunks().size()), chunkReady);
  execute(list, program);
  out->markDevicesModified();
}

} // namespace skelcl::detail
