// Evaluators for the irregular skeleton roots. Both follow the plan
// scaffolding of expr.cpp's dense evaluators (argument binding, chunk
// visit order, per-device event chains, failure atomicity via the
// caller's poison-on-throw) but own their launch geometry:
//
// Stencil — block-distributes the input on *row-aligned* chunk
// boundaries and gives each chunk a halo-padded buffer, in two passes.
// Pass 1 packs every chunk's padded buffer from its own data in one
// launch: its rows with their column padding, plus the policy-resolved
// rows beyond a grid edge it owns. Pass 2 copies each halo — R packed
// rows of the neighbor's padded buffer — pad-to-pad with one
// cross-device buffer copy (D2H+H2D engines) dependent on the
// neighbor's pack, and computes in two launches: the interior rows
// depend only on the chunk's own pack, so they overlap the halo copies;
// one border launch covers both R-row borders once the halos land.
// A chunk without a halo computes in one launch. Degenerate geometry
// (fewer rows than the radius on any device, a single device, an empty
// vector) falls back to the Single distribution — the same gather rule
// Scan uses — where no halo exists at all.
//
// SparseGather — the matrix rows are block-partitioned (CsrState fixed
// that geometry at upload), the dense operand is copy-distributed, and
// one work-item folds one row's gathered values with the combine
// function. No inter-device traffic: the gather indexes the full
// replicated operand.
#include "skelcl/detail/irregular.h"

#include <algorithm>
#include <cstdint>
#include <vector>

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

std::string stencilProgramSource(const std::shared_ptr<ExprNode>& node,
                                 const FusionPlan& plan) {
  const StencilParams& P = *node->stencil;
  const FusionStage& stage = plan.stages.front();
  return registeredTypeDefinitions() + plan.functionsSource +
         packKernelSource(P, node->outType) +
         computeKernelSource(P, node->outType, plan.rootFuncName,
                             plan.argDecls,
                             node->args.callSuffix(stage.argPrefix));
}

std::string sparseProgramSource(const std::shared_ptr<ExprNode>& node,
                                const FusionPlan& plan) {
  const std::string& t = node->outType;
  const FusionStage& stage = plan.stages.front();
  const UserFunction& combine = *node->sparse->combine;
  return registeredTypeDefinitions() + plan.functionsSource +
         combine.source() + "\n" +
         "\n__kernel void skelcl_spgather(__global const uint* "
         "skelcl_rowptr, __global const uint* skelcl_colidx, "
         "__global const " + t + "* skelcl_vals, __global const " + t +
         "* skelcl_x, __global " + t +
         "* skelcl_out, uint skelcl_rows, uint skelcl_nnzbase" +
         plan.argDecls +
         ") {\n"
         "  size_t skelcl_i = get_global_id(0);\n"
         "  if (skelcl_i < skelcl_rows) {\n"
         "    " + t + " skelcl_acc = " + node->identityExpr +
         ";\n"
         "    uint skelcl_b = skelcl_rowptr[skelcl_i] - skelcl_nnzbase;\n"
         "    uint skelcl_e = skelcl_rowptr[skelcl_i + 1] - "
         "skelcl_nnzbase;\n"
         "    for (uint skelcl_k = skelcl_b; skelcl_k < skelcl_e; "
         "++skelcl_k) {\n"
         "      skelcl_acc = " + combine.name() +
         "(skelcl_acc, " + plan.rootFuncName +
         "(skelcl_vals[skelcl_k], skelcl_x[skelcl_colidx[skelcl_k]]" +
         node->args.callSuffix(stage.argPrefix) +
         "));\n"
         "    }\n"
         "    skelcl_out[skelcl_i] = skelcl_acc;\n"
         "  }\n"
         "}\n";
}

} // namespace

bool placeInRowBlocks(VectorState& in, const StencilParams& P) {
  auto& runtime = Runtime::instance();
  const std::size_t W = P.width > 0 ? P.width : 1;
  const std::size_t n = in.size();
  COMMON_CHECK(n % W == 0); // validated at the call site
  const std::size_t totalRows = n / W;

  // Geometry: a multi-device run needs every device's row share to
  // cover the radius, so each halo is one contiguous copy from exactly
  // one neighbor chunk. Degenerate shares fall back to a single device,
  // which the caller places. The blocks split whole rows (a 2D stencil
  // must not cut a grid row across devices). An iterated stencil keeps
  // its chunks after the first step (place's same-layout case) and stays
  // resident.
  if (runtime.deviceCount() > 1 && totalRows > 0) {
    const std::vector<Chunk> layout =
        layoutOf(Distribution::Block, 0, totalRows, W);
    if (std::all_of(layout.begin(), layout.end(), [&](const Chunk& c) {
          return c.count >= P.radius * W;
        })) {
      in.place(Distribution::Block, 0, layout);
      return true;
    }
  }
  return false;
}

void runStencil(const std::shared_ptr<ExprNode>& node,
                const std::shared_ptr<VectorState>& out,
                const FusionPlan& plan, Runtime& runtime) {
  const StencilParams& P = *node->stencil;
  const std::size_t R = P.radius;
  const bool is2D = P.width > 0;
  const std::size_t W = is2D ? P.width : 1;
  const std::size_t elem = node->outElemSize;
  const bool wrap = P.boundary == kWrap;
  VectorState& in = *plan.leaves.front();

  // Placement chose the layout: row-aligned blocks or one device.
  const bool multi = in.distribution() == Distribution::Block;
  trace::recordDecision(multi ? "stencil.layout: row-aligned"
                              : "stencil.layout: single-device");
  const std::size_t totalRows = in.size() / W;
  prepareStageArguments(plan);
  out->allocateOutput(in.distribution(), in.singleDeviceIndex(), in.chunks());

  ocl::Program program = runtime.programFor(stencilProgramSource(node, plan));
  const auto& chunks = in.chunks();
  const std::size_t pw = is2D ? W + 2 * R : 1; // padded row length
  const std::size_t haloBytes = R * pw * elem;
  const std::vector<std::size_t> order = runtime.chunkVisitOrder(chunks.size());
  std::vector<ocl::Buffer> pads(chunks.size());
  std::vector<ocl::Event> packed(chunks.size());
  // A chunk's rows, first grid row, and which halos it receives.
  struct Geometry {
    std::size_t rows, rowBase;
    bool hasTop, hasBot;
  };
  auto geometry = [&](const Chunk& c) {
    const std::size_t rows = c.count / W;
    const std::size_t rowBase = c.offset / W;
    return Geometry{rows, rowBase, multi && (rowBase > 0 || wrap),
                    multi && (rowBase + rows < totalRows || wrap)};
  };

  std::size_t d = 0; // device of the command being enqueued, for errors
  try {
    // Pass 1: each chunk packs, in one launch dependent only on its own
    // upload, every padded row its own data determines — its rows, and
    // the policy-resolved rows beyond a grid edge it owns. Rows that
    // come from a neighbor (a halo) are left for pass 2.
    for (std::size_t idx : order) {
      const Chunk& chunk = chunks[idx];
      if (chunk.count == 0) {
        continue;
      }
      d = chunk.deviceIndex;
      const auto& device = runtime.devices()[d];
      const auto [rows, rowBase, hasTop, hasBot] = geometry(chunk);
      pads[idx] =
          runtime.context().createBuffer(device, (rows + 2 * R) * pw * elem);
      const std::size_t p0 = hasTop ? R * pw : 0;
      const std::size_t pn = (rows + 2 * R) * pw - p0 - (hasBot ? R * pw : 0);

      ocl::Kernel kernel = program.createKernel("skelcl_stencil_pack");
      std::size_t arg = 0;
      kernel.setArg(arg++, chunk.buffer);
      kernel.setArg(arg++, pads[idx]);
      kernel.setArg(arg++, std::uint32_t(p0));
      kernel.setArg(arg++, std::uint32_t(pn));
      kernel.setArg(arg++, std::uint32_t(rowBase));
      kernel.setArg(arg++, std::uint32_t(totalRows));
      if (!P.constArg.empty()) {
        P.constArg.apply(kernel, arg, d);
      }
      std::vector<ocl::Event> deps;
      appendEvent(deps, chunk.ready);
      const std::size_t wg =
          effectiveWorkGroupSize(node->workGroupSize, pn, device);
      packed[idx] = runtime.queue(d).enqueueNDRange(
          kernel, ocl::NDRange1D{roundUp(pn, wg), wg}, deps);
    }

    // Pass 2: halos and compute. Each halo is one copy of R padded rows
    // from the neighbor's packed buffer straight into this chunk's halo
    // rows, dependent on the neighbor's pack; it is enqueued on the
    // *destination* queue, so it occupies the source's D2H and this
    // device's H2D engine and leaves the compute engine to the interior
    // launch, which needs only this chunk's own pack. One border launch
    // then covers rows [0, R) and [rows - R, rows) once both halos land.
    for (std::size_t idx : order) {
      const Chunk& chunk = chunks[idx];
      if (chunk.count == 0) {
        continue;
      }
      d = chunk.deviceIndex;
      const auto& device = runtime.devices()[d];
      auto& queue = runtime.queue(d);
      const auto [rows, rowBase, hasTop, hasBot] = geometry(chunk);

      std::vector<ocl::Event> borderDeps{packed[idx]};
      auto copyHalo = [&](std::size_t srcRow, std::size_t dstPadRow) {
        const std::size_t s = chunkContainingRow(chunks, srcRow, W);
        const std::size_t srcPadRow = srcRow - chunks[s].offset / W + R;
        borderDeps.push_back(queue.enqueueCopyBuffer(
            pads[s], srcPadRow * pw * elem, pads[idx], dstPadRow * pw * elem,
            haloBytes, {packed[s]}));
        noteHaloBytes(haloBytes);
      };
      if (hasTop) {
        copyHalo(rowBase > 0 ? rowBase - R : totalRows - R, 0);
      }
      if (hasBot) {
        const std::size_t next = rowBase + rows;
        copyHalo(next < totalRows ? next : 0, rows + R);
      }

      // The interior and border launches are each sized by their own
      // item count.
      auto compute = [&](std::size_t r0, std::size_t rn, std::size_t skip,
                         std::vector<ocl::Event> deps) {
        const std::size_t wg =
            effectiveWorkGroupSize(node->workGroupSize, rn * W, device);
        ocl::Kernel kernel = program.createKernel("skelcl_stencil");
        std::size_t arg = 0;
        kernel.setArg(arg++, pads[idx]);
        kernel.setArg(arg++, out->chunkForDevice(d).buffer);
        kernel.setArg(arg++, std::uint32_t(r0));
        kernel.setArg(arg++, std::uint32_t(rn * W));
        kernel.setArg(arg++, std::uint32_t(skip));
        bindStageArguments(plan, kernel, arg, d);
        collectStageDeps(plan, deps, d);
        return queue.enqueueNDRange(
            kernel, ocl::NDRange1D{roundUp(rn * W, wg), wg}, deps);
      };

      // The interior rows [R, rows - R) overlap the halo copies still in
      // flight; the border launch chains after them into the chunk's one
      // final event. A chunk of at most 2R rows is all border, and one
      // without a halo computes all its rows in the single launch.
      const std::size_t border =
          hasTop || hasBot ? std::min(rows, 2 * R) : rows;
      if (rows > border) {
        borderDeps.push_back(compute(R, rows - border, 0, {packed[idx]}));
      }
      const ocl::Event done = compute(0, border, rows - border, borderDeps);
      out->recordEventOn(d, done);
      recordStageEvents(plan, done, d);
    }
  } catch (ocl::ClError& e) {
    e.prependContext(plan.label + " skeleton on device " + std::to_string(d));
    throw;
  }
  out->markDevicesModified();
}

void CsrState::ensureOnDevices() {
  if (!chunks_.empty()) {
    return;
  }
  auto& runtime = Runtime::instance();
  runtime.requireInit();
  try {
    for (const Chunk& share : layoutOf(Distribution::Block, 0, rows_)) {
      CsrChunk chunk;
      chunk.deviceIndex = share.deviceIndex;
      chunk.rowBegin = share.offset;
      chunk.rowCount = share.count;
      chunk.nnzBegin = rowPtr_[chunk.rowBegin];
      chunk.nnzCount =
          rowPtr_[chunk.rowBegin + chunk.rowCount] - chunk.nnzBegin;

      const auto& device = runtime.devices()[chunk.deviceIndex];
      auto& queue = runtime.queue(chunk.deviceIndex);
      const std::size_t ptrBytes =
          (chunk.rowCount + 1) * sizeof(std::uint32_t);
      const std::size_t valueBytes = chunk.nnzCount * valueSize_;
      chunk.rowPtr = runtime.context().createBuffer(device, ptrBytes);
      chunk.colIdx = runtime.context().createBuffer(
          device,
          std::max<std::size_t>(1, chunk.nnzCount * sizeof(std::uint32_t)));
      chunk.values = runtime.context().createBuffer(
          device, std::max<std::size_t>(1, valueBytes));
      // The three uploads chain on the H2D engine; the last event is the
      // chunk's single ready event.
      ocl::Event w = queue.enqueueWriteBuffer(
          chunk.rowPtr, 0, ptrBytes, rowPtr_.data() + chunk.rowBegin);
      if (chunk.nnzCount > 0) {
        w = queue.enqueueWriteBuffer(
            chunk.colIdx, 0, chunk.nnzCount * sizeof(std::uint32_t),
            colIdx_.data() + chunk.nnzBegin, {w});
        w = queue.enqueueWriteBuffer(
            chunk.values, 0, valueBytes,
            values_.get() + chunk.nnzBegin * valueSize_, {w});
      }
      chunk.ready = std::move(w);
      chunks_.push_back(std::move(chunk));
    }
  } catch (ocl::ClError& e) {
    // Failure atomicity: drop every chunk so a later retry re-uploads
    // from the intact host arrays.
    chunks_.clear();
    e.prependContext("CSR upload of " + std::to_string(nnz()) +
                     " nonzero(s)");
    throw;
  }
}

void runSparseGather(const std::shared_ptr<ExprNode>& node,
                     const std::shared_ptr<VectorState>& out,
                     const FusionPlan& plan, Runtime& runtime) {
  // Placement replicated the dense operand (the gather may touch any
  // column on any device). The output takes the matrix's row
  // partition: the block split of its rows, which its upload used too
  // (block weights are fixed for an init() cycle).
  const CsrState& csr = *node->sparse->csr;
  VectorState& x = *plan.leaves.front();
  prepareStageArguments(plan);

  const std::vector<CsrChunk>& cchunks = csr.chunks();
  out->allocateOutput(Distribution::Block, 0,
                      layoutOf(Distribution::Block, 0, csr.rows()));

  ocl::Program program = runtime.programFor(sparseProgramSource(node, plan));
  for (std::size_t idx : runtime.chunkVisitOrder(cchunks.size())) {
    const CsrChunk& cc = cchunks[idx];
    if (cc.rowCount == 0) {
      continue; // zero-row share (more devices than rows): no launch
    }
    try {
      const std::size_t d = cc.deviceIndex;
      const auto& device = runtime.devices()[d];
      ocl::Kernel kernel = program.createKernel("skelcl_spgather");
      std::size_t arg = 0;
      kernel.setArg(arg++, cc.rowPtr);
      kernel.setArg(arg++, cc.colIdx);
      kernel.setArg(arg++, cc.values);
      kernel.setArg(arg++, x.chunkForDevice(d).buffer);
      kernel.setArg(arg++, out->chunkForDevice(d).buffer);
      kernel.setArg(arg++, std::uint32_t(cc.rowCount));
      kernel.setArg(arg++, std::uint32_t(cc.nnzBegin));
      bindStageArguments(plan, kernel, arg, d);

      std::vector<ocl::Event> deps;
      appendEvent(deps, cc.ready);
      appendEvent(deps, x.readyEventOn(d));
      collectStageDeps(plan, deps, d);
      const std::size_t wg =
          effectiveWorkGroupSize(node->workGroupSize, cc.rowCount, device);
      ocl::Event done = runtime.queue(d).enqueueNDRange(
          kernel, ocl::NDRange1D{roundUp(cc.rowCount, wg), wg}, deps);
      out->recordEventOn(d, done);
      recordStageEvents(plan, done, d);
    } catch (ocl::ClError& e) {
      e.prependContext(plan.label + " skeleton on device " +
                       std::to_string(cc.deviceIndex));
      throw;
    }
  }
  out->markDevicesModified();
}

} // namespace skelcl::detail
