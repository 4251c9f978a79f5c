// Placement and evaluators for the irregular skeleton roots. Both
// evaluators follow the plan scaffolding of expr.cpp's dense evaluators
// (argument binding, chunk visit order, per-device event chains, failure
// atomicity via the caller's poison-on-throw) but own their launch
// geometry, and each call runs in the layout its placement forecast to
// finish first: spread over the devices, or on one device.
//
// Stencil — spread, block-distributes the input on *row-aligned* chunk
// boundaries and gives each chunk a halo-padded buffer, in two passes.
// Pass 1 packs every chunk's padded buffer from its own data in one
// launch: its rows with their column padding, plus the policy-resolved
// rows beyond a grid edge it owns. Pass 2 copies each halo — R packed
// rows of the neighbor's padded buffer — pad-to-pad with one
// cross-device buffer copy (D2H+H2D engines) dependent on the
// neighbor's pack, and computes in two launches: the interior rows
// depend only on the chunk's own pack, so they overlap the halo copies;
// one border launch covers both R-row borders once the halos land.
// A chunk without a halo — the whole grid on one device — computes in
// one launch. Row-aligned blocks cannot run a grid with fewer rows than
// the radius on some device, so such a grid, like an empty one, always
// runs on one device.
//
// SparseGather — spread, the matrix rows are block-partitioned (CsrState
// placed its three arrays in that partition) and the dense operand is
// copy-distributed; on one device all four live there. One work-item
// folds one row's gathered values with the combine function. No
// inter-device traffic: the gather indexes the whole operand.
//
// The forecasts (placeStencilInput, placeSparseOperands) replay the
// commands each layout enqueues — a stencil's from the one list
// runStencil enqueues from — on scratch timelines, from the timing
// model's own terms and per-item costs probed from the call's kernels;
// DESIGN.md §6i lists them.
#include "skelcl/detail/irregular.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
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

void noteHaloBytes(std::uint64_t bytes) {
  if (trace::Recorder::enabled()) {
    trace::Recorder::instance().bumpCounter("halo_bytes", trace::kNoDevice,
                                            trace::now(), bytes);
  }
}

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

/// One command of a stencil call. Pack fills padded elements [begin,
/// begin + count) of the chunk's halo-padded buffer; Halo copies R
/// padded rows from pad row `begin` of chunk `source`'s buffer into pad
/// row `to` of this chunk's; Interior and Border compute `count` rows
/// from local row `begin`, jumping `skip` rows at row R.
struct StencilCommand {
  enum class Kind { Pack, Halo, Interior, Border };
  Kind kind;
  std::size_t chunk;
  std::size_t begin = 0, count = 0, skip = 0, source = 0, to = 0;
};

/// The commands of a stencil over `chunks`, in the order runStencil
/// enqueues them — and the layout forecast replays them. Pass 1: each
/// chunk packs every padded row its own data determines (its rows, and
/// the policy-resolved rows beyond a grid edge it owns); rows that come
/// from a neighbor are left to pass 2. Pass 2, per chunk: the halo
/// copies, the interior rows [R, rows - R), which need only the chunk's
/// own pack and so overlap the copies, and one border launch covering
/// rows [0, R) and [rows - R, rows) once the halos land. A chunk of at
/// most 2R rows is all border, and one without a halo computes all its
/// rows in the single launch. Chunks are visited in `order`.
std::vector<StencilCommand> stencilCommands(
    const std::vector<Chunk>& chunks, const StencilParams& P, bool multi,
    std::size_t totalRows, const std::vector<std::size_t>& order) {
  using Kind = StencilCommand::Kind;
  const std::size_t R = P.radius;
  const std::size_t W = P.width > 0 ? P.width : 1;
  const std::size_t pw = P.width > 0 ? W + 2 * R : 1; // padded row length
  std::vector<StencilCommand> commands;
  for (std::size_t idx : order) {
    if (chunks[idx].count > 0) {
      const Geometry g = geometryOf(chunks[idx], P, multi, totalRows);
      const std::size_t p0 = g.hasTop ? R * pw : 0;
      commands.push_back({Kind::Pack, idx, p0,
                          (g.rows + 2 * R) * pw - p0 - (g.hasBot ? R * pw : 0)});
    }
  }
  for (std::size_t idx : order) {
    if (chunks[idx].count == 0) {
      continue;
    }
    const Geometry g = geometryOf(chunks[idx], P, multi, totalRows);
    auto halo = [&](std::size_t srcRow, std::size_t dstPadRow) {
      const std::size_t s = chunkContainingRow(chunks, srcRow, W);
      commands.push_back({Kind::Halo, idx, srcRow - chunks[s].offset / W + R,
                          0, 0, s, dstPadRow});
    };
    if (g.hasTop) {
      halo(g.rowBase > 0 ? g.rowBase - R : totalRows - R, 0);
    }
    if (g.hasBot) {
      const std::size_t next = g.rowBase + g.rows;
      halo(next < totalRows ? next : 0, g.rows + R);
    }
    const std::size_t border =
        g.hasTop || g.hasBot ? std::min(g.rows, 2 * R) : g.rows;
    if (g.rows > border) {
      commands.push_back({Kind::Interior, idx, R, g.rows - border});
    }
    commands.push_back({Kind::Border, idx, 0, border, g.rows - border});
  }
  return commands;
}

// --- layout by predicted finish -------------------------------------------

/// What one work-item of a kernel is billed: VM cycles and global bytes.
struct ItemCost {
  double cycles = 0;
  double bytes = 0;
};

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

/// A call's commands replayed on scratch timelines that start idle, with
/// CommandQueue::submit's rule minus the schedule jitter: the host pays
/// one enqueue overhead per command in issue order, and a command starts
/// once issued, once its engines are free and once `afterNs` passed.
/// Starting idle, a forecast is the same under every schedule and mode.
class Forecast {
public:
  explicit Forecast(Runtime& runtime)
      : devices_(runtime.devices()), ready_(runtime.deviceCount()) {
    for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
      backends_.push_back(runtime.queue(d).backend());
      models_.emplace_back(devices_[d].spec(), backends_[d]);
    }
  }

  const ocl::TimingModel& model(std::size_t d) const { return models_[d]; }
  std::uint64_t ready(std::size_t d, ocl::Engine engine) const {
    return ready_[d][std::size_t(engine)];
  }
  std::uint64_t finish() const { return finish_; }

  /// End of a command of `durationNs` on device d's `engine`.
  std::uint64_t run(std::size_t d, ocl::Engine engine,
                    std::uint64_t durationNs, std::uint64_t afterNs = 0) {
    return issue(d, engine, d, engine, durationNs, afterNs,
                 models_[d].enqueueOverheadNs());
  }

  /// End of a launch of `items` work-items of cost `item` on device d,
  /// in the work-groups the evaluator will use (`groupSize` 0: the
  /// default).
  std::uint64_t launch(std::size_t d, std::size_t groupSize,
                       std::size_t items, const ItemCost& item,
                       std::uint64_t afterNs) {
    const std::size_t wg = effectiveWorkGroupSize(groupSize, items,
                                                  devices_[d]);
    return run(d, ocl::Engine::Compute,
               models_[d].predictKernelNs(items, wg, item.cycles, item.bytes),
               afterNs);
  }

  /// End of a cross-device copy of `bytes` enqueued on `dst`'s queue.
  std::uint64_t copy(std::size_t src, std::size_t dst, std::uint64_t bytes,
                     std::uint64_t afterNs) {
    return issue(src, ocl::Engine::DeviceToHost, dst,
                 ocl::Engine::HostToDevice,
                 ocl::peerCopyDurationNs(devices_[src].state(),
                                         devices_[dst].state(),
                                         backends_[dst], bytes),
                 afterNs, models_[dst].enqueueOverheadNs());
  }

  /// The host blocks until `ns` (a blocking download).
  void wait(std::uint64_t ns) { host_ = std::max(host_, ns); }

private:
  std::uint64_t issue(std::size_t d1, ocl::Engine e1, std::size_t d2,
                      ocl::Engine e2, std::uint64_t durationNs,
                      std::uint64_t afterNs, std::uint64_t overheadNs) {
    std::uint64_t& a = ready_[d1][std::size_t(e1)];
    std::uint64_t& b = ready_[d2][std::size_t(e2)];
    const std::uint64_t end =
        std::max({host_, afterNs, a, b}) + durationNs;
    a = b = end;
    host_ += overheadNs;
    finish_ = std::max(finish_, end);
    return end;
  }

  const std::vector<ocl::Device>& devices_;
  std::vector<ocl::Backend> backends_;
  std::vector<ocl::TimingModel> models_;
  std::vector<std::array<std::uint64_t, ocl::kEngineCount>> ready_;
  std::uint64_t host_ = 0;
  std::uint64_t finish_ = 0;
};

/// Forecasts place(..., layout) of `v`: what it moves because the data
/// sits in another layout — a download of newer device data, which the
/// host waits for, then one upload per chunk. A newer host copy crosses
/// PCIe once whichever layout takes it, so that upload is left out: a
/// layout is judged by what a call in it costs (an iterated stencil pays
/// the upload once and the layout every step), plus what leaving the
/// data's current layout costs.
void forecastStaging(Forecast& f, const VectorState& v,
                     const std::vector<Chunk>& layout) {
  if (v.hostDirty() || v.holds(layout)) {
    return;
  }
  const std::size_t elem = v.elementSize();
  if (v.devicesDirty()) {
    std::uint64_t downloaded = 0;
    for (const Chunk& c : v.chunks()) {
      const std::size_t d = c.deviceIndex;
      downloaded = std::max(
          downloaded, f.run(d, ocl::Engine::DeviceToHost,
                            f.model(d).transferDurationNs(c.count * elem)));
      if (v.distribution() == Distribution::Copy) {
        break; // every copy is equal: the first is read
      }
    }
    f.wait(downloaded);
  }
  for (const Chunk& c : layout) {
    if (c.count > 0) {
      f.run(c.deviceIndex, ocl::Engine::HostToDevice,
            f.model(c.deviceIndex).transferDurationNs(c.count * elem));
    }
  }
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
  using Kind = StencilCommand::Kind;
  Forecast f(Runtime::instance());
  forecastStaging(f, in, layout);
  const StencilParams& P = *node.stencil;
  const std::size_t W = P.width > 0 ? P.width : 1;
  const std::size_t pw = P.width > 0 ? W + 2 * P.radius : 1;
  const std::uint64_t haloBytes = P.radius * pw * in.elementSize();
  std::vector<std::size_t> order(layout.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::uint64_t> packed(layout.size());
  std::vector<std::uint64_t> borderAfter(layout.size());
  for (const StencilCommand& c : stencilCommands(
           layout, P, multi, in.size() / W, order)) {
    const std::size_t d = layout[c.chunk].deviceIndex;
    switch (c.kind) {
      case Kind::Pack:
        packed[c.chunk] = borderAfter[c.chunk] =
            f.launch(d, node.workGroupSize, c.count, costs.first,
                     f.ready(d, ocl::Engine::HostToDevice));
        break;
      case Kind::Halo:
        borderAfter[c.chunk] = std::max(
            borderAfter[c.chunk],
            f.copy(layout[c.source].deviceIndex, d, haloBytes,
                   packed[c.source]));
        break;
      case Kind::Interior:
        borderAfter[c.chunk] = std::max(
            borderAfter[c.chunk],
            f.launch(d, node.workGroupSize, c.count * W, costs.second,
                     packed[c.chunk]));
        break;
      case Kind::Border:
        f.launch(d, node.workGroupSize, c.count * W, costs.second,
                 borderAfter[c.chunk]);
        break;
    }
  }
  return f.finish();
}

/// The single-device candidate: the device that holds `v` — a Single
/// vector with current device data, where it was placed or where its
/// pending producer ran — else the device on which the call, started
/// once that device's compute engine frees, would finish first
/// (`singleOn(d)`: the call's forecast on device d alone; the lowest
/// index on a tie). On identical devices that is the device whose
/// compute engine frees first; a slower one must be that much sooner
/// free.
template <typename SingleOn>
std::size_t homeDevice(const VectorState& v, const SingleOn& singleOn) {
  if (v.distribution() == Distribution::Single && !v.hostDirty()) {
    return v.singleDeviceIndex();
  }
  auto& runtime = Runtime::instance();
  auto finishOn = [&](std::size_t d) {
    return runtime.devices()[d].state().readyTimeNs(ocl::Engine::Compute) +
           singleOn(d);
  };
  std::size_t best = 0;
  std::uint64_t bestNs = finishOn(0);
  for (std::size_t d = 1; d < runtime.deviceCount(); ++d) {
    const std::uint64_t ns = finishOn(d);
    if (ns < bestNs) {
      best = d;
      bestNs = ns;
    }
  }
  return best;
}

/// Whether the call spreads: its multi-device forecast finishes first
/// (one device wins a tie). With `record`, files the choice — `spread`
/// or `single` — carrying both forecasts.
bool spreads(std::uint64_t multiNs, std::uint64_t singleNs, bool record,
             const char* spread, const char* single) {
  const bool multi = multiNs < singleNs;
  if (record) {
    trace::recordDecision(multi ? spread : single,
                          trace::packForecasts(multiNs, singleNs));
  }
  return multi;
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
  // Forecasts are made wherever they are read: to choose the device and
  // the layout, or to file the decision.
  std::size_t home = 0;
  std::uint64_t multiNs = kNever;
  std::uint64_t singleNs = 0;
  if (runtime.deviceCount() > 1 || (record && trace::Recorder::enabled())) {
    const std::pair<ItemCost, ItemCost> costs = stencilItemCosts(node);
    auto singleOn = [&](std::size_t d) {
      return forecastStencil(in, node, layoutOf(Distribution::Single, d, n),
                             false, costs);
    };
    home = homeDevice(in, singleOn);
    singleNs = singleOn(home);
    if (feasible) {
      multiNs = forecastStencil(in, node, blocks, true, costs);
    }
  }
  // An iterated stencil keeps its chunks after the first step (place's
  // same-layout case) and stays resident.
  if (spreads(multiNs, singleNs, record, "stencil.layout: row-aligned",
              "stencil.layout: single-device")) {
    in.place(Distribution::Block, 0, blocks);
  } else {
    in.place(Distribution::Single, home,
             layoutOf(Distribution::Single, home, n));
  }
}

void runStencil(const std::shared_ptr<ExprNode>& node,
                const std::shared_ptr<VectorState>& out,
                const FusionPlan& plan, Runtime& runtime) {
  using Kind = StencilCommand::Kind;
  const StencilParams& P = *node->stencil;
  const std::size_t R = P.radius;
  const bool is2D = P.width > 0;
  const std::size_t W = is2D ? P.width : 1;
  const std::size_t elem = node->outElemSize;
  VectorState& in = *plan.leaves.front();

  // Placement chose the layout: row-aligned blocks or one device.
  const bool multi = in.distribution() == Distribution::Block;
  const std::size_t totalRows = in.size() / W;
  prepareStageArguments(plan);
  out->allocateOutput(in.distribution(), in.singleDeviceIndex(), in.chunks());

  ocl::Program program = runtime.programFor(stencilProgramSource(*node));
  const auto& chunks = in.chunks();
  const std::size_t pw = is2D ? W + 2 * R : 1; // padded row length
  std::vector<ocl::Buffer> pads(chunks.size());
  std::vector<ocl::Event> packed(chunks.size());
  // Per chunk: what its border launch waits for besides its own pack —
  // the halo copies and the interior launch.
  std::vector<std::vector<ocl::Event>> borderDeps(chunks.size());

  std::size_t d = 0; // device of the command being enqueued, for errors
  try {
    for (const StencilCommand& c :
         stencilCommands(chunks, P, multi, totalRows,
                         runtime.chunkVisitOrder(chunks.size()))) {
      const Chunk& chunk = chunks[c.chunk];
      d = chunk.deviceIndex;
      const auto& device = runtime.devices()[d];
      auto& queue = runtime.queue(d);
      switch (c.kind) {
        case Kind::Pack: {
          pads[c.chunk] = runtime.context().createBuffer(
              device, (chunk.count / W + 2 * R) * pw * elem);
          ocl::Kernel kernel = program.createKernel("skelcl_stencil_pack");
          std::size_t arg = 0;
          kernel.setArg(arg++, chunk.buffer);
          kernel.setArg(arg++, pads[c.chunk]);
          kernel.setArg(arg++, std::uint32_t(c.begin));
          kernel.setArg(arg++, std::uint32_t(c.count));
          kernel.setArg(arg++, std::uint32_t(chunk.offset / W));
          kernel.setArg(arg++, std::uint32_t(totalRows));
          if (!P.constArg.empty()) {
            P.constArg.apply(kernel, arg, d);
          }
          std::vector<ocl::Event> deps;
          appendEvent(deps, chunk.ready);
          const std::size_t wg =
              effectiveWorkGroupSize(node->workGroupSize, c.count, device);
          packed[c.chunk] = queue.enqueueNDRange(
              kernel, ocl::NDRange1D{roundUp(c.count, wg), wg}, deps);
          break;
        }
        case Kind::Halo: {
          // Enqueued on the *destination* queue, it occupies the source's
          // D2H and this device's H2D engine and leaves the compute
          // engine to the interior launch.
          const std::size_t bytes = R * pw * elem;
          borderDeps[c.chunk].push_back(queue.enqueueCopyBuffer(
              pads[c.source], c.begin * pw * elem, pads[c.chunk],
              c.to * pw * elem, bytes, {packed[c.source]}));
          noteHaloBytes(bytes);
          break;
        }
        case Kind::Interior:
        case Kind::Border: {
          // Each launch is sized by its own item count.
          const std::size_t items = c.count * W;
          const std::size_t wg =
              effectiveWorkGroupSize(node->workGroupSize, items, device);
          ocl::Kernel kernel = program.createKernel("skelcl_stencil");
          std::size_t arg = 0;
          kernel.setArg(arg++, pads[c.chunk]);
          kernel.setArg(arg++, out->chunkForDevice(d).buffer);
          kernel.setArg(arg++, std::uint32_t(c.begin));
          kernel.setArg(arg++, std::uint32_t(items));
          kernel.setArg(arg++, std::uint32_t(c.skip));
          bindStageArguments(plan, kernel, arg, d);
          std::vector<ocl::Event> deps{packed[c.chunk]};
          if (c.kind == Kind::Border) {
            deps.insert(deps.end(), borderDeps[c.chunk].begin(),
                        borderDeps[c.chunk].end());
          }
          collectStageDeps(plan, deps, d);
          const ocl::Event done = queue.enqueueNDRange(
              kernel, ocl::NDRange1D{roundUp(items, wg), wg}, deps);
          if (c.kind == Kind::Interior) {
            borderDeps[c.chunk].push_back(done);
          } else {
            out->recordEventOn(d, done);
            recordStageEvents(plan, done, d);
          }
          break;
        }
      }
    }
  } catch (ocl::ClError& e) {
    e.prependContext(plan.label + " skeleton on device " + std::to_string(d));
    throw;
  }
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

/// When the matrix and `x` placed for rows in `dist` (x replicated with
/// Block rows, on `device` with Single) and the gather launches would
/// finish, each row billed as `cost` at its chunk's mean nonzeros.
std::uint64_t forecastSparse(const VectorState& x, const ExprNode& node,
                             Distribution dist, std::size_t device,
                             const RowCost& cost) {
  const CsrState& csr = *node.sparse->csr;
  Forecast f(Runtime::instance());
  const auto [ptrLayout, nnzLayout] = csr.layouts(dist, device);
  forecastStaging(f, csr.rowPtr(), ptrLayout);
  forecastStaging(f, csr.colIdx(), nnzLayout);
  forecastStaging(f, csr.values(), nnzLayout);
  forecastStaging(f, x,
                  dist == Distribution::Block
                      ? layoutOf(Distribution::Copy, 0, x.size())
                      : layoutOf(Distribution::Single, device, x.size()));
  for (std::size_t i = 0; i < ptrLayout.size(); ++i) {
    const std::size_t rows = ptrLayout[i].count - 1;
    if (rows == 0) {
      continue;
    }
    const std::size_t d = ptrLayout[i].deviceIndex;
    const double perRow = double(nnzLayout[i].count) / double(rows);
    f.launch(d, node.workGroupSize, rows,
             {cost.base.cycles + perRow * cost.perNonzero.cycles,
              cost.base.bytes + perRow * cost.perNonzero.bytes},
             f.ready(d, ocl::Engine::HostToDevice));
  }
  return f.finish();
}

} // namespace

void placeSparseOperands(VectorState& x, const ExprNode& node, bool record) {
  auto& runtime = Runtime::instance();
  CsrState& csr = *node.sparse->csr;
  // As for a stencil, forecasts are made wherever they are read.
  std::size_t home = 0;
  std::uint64_t multiNs = kNever;
  std::uint64_t singleNs = 0;
  if (runtime.deviceCount() > 1 || (record && trace::Recorder::enabled())) {
    const RowCost cost = sparseRowCost(node, x.elementSize());
    auto singleOn = [&](std::size_t d) {
      return forecastSparse(x, node, Distribution::Single, d, cost);
    };
    home = homeDevice(x, singleOn);
    singleNs = singleOn(home);
    if (runtime.deviceCount() > 1) {
      multiNs = forecastSparse(x, node, Distribution::Block, 0, cost);
    }
  }
  // Replicated, the gather may touch any column on any device; the rows
  // are block-partitioned (block weights are fixed for an init() cycle).
  if (spreads(multiNs, singleNs, record, "sparse.layout: replicated",
              "sparse.layout: single-device")) {
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
  VectorState& x = *plan.leaves.front();
  prepareStageArguments(plan);

  out->allocateOutput(
      rowPtr.distribution(), rowPtr.singleDeviceIndex(),
      layoutOf(rowPtr.distribution(), rowPtr.singleDeviceIndex(),
               csr.rows()));

  ocl::Program program = runtime.programFor(sparseProgramSource(*node));
  const std::vector<Chunk>& ptrChunks = rowPtr.chunks();
  for (std::size_t idx : runtime.chunkVisitOrder(ptrChunks.size())) {
    const std::size_t d = ptrChunks[idx].deviceIndex;
    const std::size_t rows = ptrChunks[idx].count - 1;
    if (rows == 0) {
      continue; // zero-row share (more devices than rows): no launch
    }
    try {
      const auto& device = runtime.devices()[d];
      // The nonzero slices start at absolute nonzero `nnz.offset`.
      const Chunk& nnz = csr.colIdx().chunkForDevice(d);
      ocl::Kernel kernel = program.createKernel("skelcl_spgather");
      std::size_t arg = 0;
      kernel.setArg(arg++, ptrChunks[idx].buffer);
      kernel.setArg(arg++, nnz.buffer);
      kernel.setArg(arg++, csr.values().chunkForDevice(d).buffer);
      kernel.setArg(arg++, x.chunkForDevice(d).buffer);
      kernel.setArg(arg++, out->chunkForDevice(d).buffer);
      kernel.setArg(arg++, std::uint32_t(rows));
      kernel.setArg(arg++, std::uint32_t(nnz.offset));
      bindStageArguments(plan, kernel, arg, d);

      std::vector<ocl::Event> deps;
      appendEvent(deps, rowPtr.readyEventOn(d));
      appendEvent(deps, csr.colIdx().readyEventOn(d));
      appendEvent(deps, csr.values().readyEventOn(d));
      appendEvent(deps, x.readyEventOn(d));
      collectStageDeps(plan, deps, d);
      const std::size_t wg =
          effectiveWorkGroupSize(node->workGroupSize, rows, device);
      ocl::Event done = runtime.queue(d).enqueueNDRange(
          kernel, ocl::NDRange1D{roundUp(rows, wg), wg}, deps);
      out->recordEventOn(d, done);
      recordStageEvents(plan, done, d);
    } catch (ocl::ClError& e) {
      e.prependContext(plan.label + " skeleton on device " +
                       std::to_string(d));
      throw;
    }
  }
  out->markDevicesModified();
}

} // namespace skelcl::detail
