// Evaluator for the lazy expression DAG. forceExprNode() is the single
// entry point every consumption site funnels into; it builds the fusion
// plan for the forced node *at force time* — children already
// materialized (extra readers, host mutations) are simply leaves — and
// executes it with exactly the launch geometry, event plumbing, and
// failure atomicity the eager skeletons had. A single-stage plan is the
// old eager execution; a fused plan runs one kernel where the chain ran
// several, with no intermediate vectors.
//
// Every evaluation resolves exactly one program, generated from its plan:
// a Reduce or Scan program carries the plain tree kernels its later
// passes run and, when the plan absorbed a chain, the fused first pass
// beside them. Every launch that may split against upload pieces goes
// through launchPipelined (skeleton_common.h).
#include "skelcl/detail/expr.h"

#include <algorithm>
#include <cstdint>

#include "skelcl/detail/csr_state.h"
#include "skelcl/detail/fusion.h"
#include "skelcl/detail/irregular.h"
#include "skelcl/detail/runtime.h"
#include "skelcl/detail/scheduler.h"
#include "skelcl/detail/skeleton_common.h"
#include "skelcl/detail/source_utils.h"
#include "trace/recorder.h"

namespace skelcl::detail {

namespace {

/// Work-group size of the Reduce/Scan trees (powers of two; matches the
/// eager implementations so fused and unfused runs group elements — and
/// therefore round floating point — identically).
constexpr std::size_t kTreeWg = 256;
constexpr std::size_t kReduceMaxGroups = 64;

/// An element-wise launch splits against upload pieces only when every
/// slice keeps this many waves of work-groups per compute unit (see
/// launchPipelined).
constexpr std::size_t kMinWavesPerSlice = 4;

struct EvalGuard {
  explicit EvalGuard(bool& flag) : flag_(flag) { flag_ = true; }
  ~EvalGuard() { flag_ = false; }
  bool& flag_;
};

/// Depth of nested evaluations on this thread. Only a force at depth 0
/// is a true consumption point: forces issued from inside an evaluation
/// (materializing an unabsorbed child) must not re-enter the scheduler.
thread_local int t_evalDepth = 0;

struct DepthGuard {
  DepthGuard() { ++t_evalDepth; }
  ~DepthGuard() { --t_evalDepth; }
};

void evaluateNode(const std::shared_ptr<ExprNode>& node,
                  const std::shared_ptr<VectorState>& out);

/// Distinct leaf states in first-occurrence order. Binding happens per
/// occurrence; upload-piece consumption and dependency collection happen
/// once per distinct state (zip(a, a) must not double-consume a's
/// pieces — exactly the eager Zip's sameState special case).
std::vector<VectorState*> distinctLeaves(const FusionPlan& plan) {
  std::vector<VectorState*> distinct;
  for (const auto& leaf : plan.leaves) {
    if (std::find(distinct.begin(), distinct.end(), leaf.get()) ==
        distinct.end()) {
      distinct.push_back(leaf.get());
    }
  }
  return distinct;
}

/// The one placement rule: stages `inputs` where `node` reads them,
/// each through VectorState::place. The first input sets the layout.
/// Map, Zip and Reduce read it in its own layout, Stencil in row-aligned
/// blocks (placeInRowBlocks), Scan and a Stencil with too few rows per
/// device on one device, and SparseGather replicated on every device
/// once the matrix is staged. Every other input is placed in the first
/// input's layout. A pending input is left for its own evaluation; while
/// the first one is pending, the others are placed in their own layouts.
/// invokeSkeleton applies the rule to a call's inputs, so upload faults
/// surface at the call site. evaluateNode applies it again to the plan's
/// leaves: the inputs that were pending at the call, and the inputs of
/// an absorbed chain, which its own calls placed for a different op.
/// Everything else is already in place, and placing it again is free.
void placeInputs(const ExprNode& node,
                 const std::vector<std::shared_ptr<VectorState>>& inputs) {
  VectorState& first = *inputs.front();
  if (node.op == ExprNode::Op::SparseGather) {
    node.sparse->csr->ensureOnDevices();
  }
  if (!first.hasPending()) {
    switch (node.op) {
      case ExprNode::Op::Stencil:
        if (placeInRowBlocks(first, *node.stencil)) {
          break;
        }
        [[fallthrough]];
      case ExprNode::Op::Scan: {
        // A Single vector stays on its device; anything else goes to
        // device 0.
        const std::size_t device = first.distribution() == Distribution::Single
                                       ? first.singleDeviceIndex()
                                       : 0;
        first.place(Distribution::Single, device,
                    layoutOf(Distribution::Single, device, first.size()));
        break;
      }
      case ExprNode::Op::SparseGather:
        first.place(Distribution::Copy, 0,
                    layoutOf(Distribution::Copy, 0, first.size()));
        break;
      default:
        first.ensureOnDevices();
        break;
    }
  }
  for (auto it = inputs.begin() + 1; it != inputs.end(); ++it) {
    VectorState& in = **it;
    if (&in == &first || in.hasPending() ||
        std::find(inputs.begin() + 1, it, *it) != it) {
      continue;
    }
    if (first.hasPending()) {
      in.ensureOnDevices();
    } else {
      in.place(first.distribution(), first.singleDeviceIndex(),
               first.chunks());
    }
  }
}

/// Kernel parameters for the plan's leaves, one per occurrence:
/// occurrence i is skelcl_in<i>.
std::string leafParams(const FusionPlan& plan) {
  std::string params;
  for (std::size_t i = 0; i < plan.leaves.size(); ++i) {
    params += "__global const " + plan.leafTypes[i] + "* skelcl_in" +
              std::to_string(i) + ", ";
  }
  return params;
}

/// Harvests each distinct leaf's split upload pieces on `deviceIndex`,
/// one list per leaf, for launchPipelined. A leaf without pieces (whole-
/// chunk upload, or data already resident) contributes its ready event
/// to `deps` instead.
std::vector<UploadPieces> takeUploadPieces(
    const std::vector<VectorState*>& leaves, std::size_t deviceIndex,
    std::vector<ocl::Event>& deps) {
  std::vector<UploadPieces> pieces;
  pieces.reserve(leaves.size());
  for (VectorState* leaf : leaves) {
    pieces.push_back(leaf->takeUploadPieces(deviceIndex));
    if (pieces.back().empty()) {
      appendEvent(deps, leaf->readyEventOn(deviceIndex));
    }
  }
  return pieces;
}

// --- element-wise plans (Map/Zip roots) ---------------------------------

std::string elementwiseKernelName(const FusionPlan& plan) {
  if (plan.stages.size() > 1) {
    return "skelcl_fused";
  }
  return plan.leaves.size() == 1 ? "skelcl_map" : "skelcl_zip";
}

/// A void result (Map<T, void>) has no output vector: the kernel takes
/// no skelcl_out and the root call is a statement run for its effects.
bool voidResult(const ExprNode& node) { return node.outType == "void"; }

std::string elementwiseSource(const FusionPlan& plan, const ExprNode& node) {
  const bool isVoid = voidResult(node);
  std::string src = registeredTypeDefinitions() + plan.functionsSource +
                    "\n__kernel void " + elementwiseKernelName(plan) + "(" +
                    leafParams(plan);
  if (!isVoid) {
    src += "__global " + node.outType + "* skelcl_out, ";
  }
  src += "uint skelcl_n" + plan.argDecls +
         ") {\n"
         "  size_t skelcl_i = get_global_id(0);\n"
         "  if (skelcl_i < skelcl_n) {\n"
         "    " + std::string(isVoid ? "" : "skelcl_out[skelcl_i] = ") +
         substituteIndex(plan.loadExpr, "skelcl_i") +
         ";\n"
         "  }\n"
         "}\n";
  return src;
}

void runElementwise(const std::shared_ptr<ExprNode>& node,
                    const std::shared_ptr<VectorState>& out,
                    const FusionPlan& plan, Runtime& runtime) {
  prepareStageArguments(plan);

  VectorState& leaf0 = *plan.leaves.front();
  const std::vector<VectorState*> distinct = distinctLeaves(plan);
  const bool isVoid = voidResult(*node);
  const bool aliased =
      std::find(distinct.begin(), distinct.end(), out.get()) !=
      distinct.end();
  if (!isVoid && !aliased) {
    out->allocateOutput(leaf0.distribution(), leaf0.singleDeviceIndex(),
                        leaf0.chunks());
  }

  ocl::Program program = runtime.programFor(elementwiseSource(plan, *node));
  const std::string kernelName = elementwiseKernelName(plan);

  // Per-device chunks are disjoint, so any visit order is legal (the
  // schedule fuzzer shuffles it); a fault on one device reports which.
  const auto& chunks = leaf0.chunks();
  for (std::size_t idx : runtime.chunkVisitOrder(chunks.size())) {
    const Chunk& chunk = chunks[idx];
    if (chunk.count == 0) {
      continue;
    }
    try {
      const auto& device = runtime.devices()[chunk.deviceIndex];
      ocl::Kernel kernel = program.createKernel(kernelName);
      std::size_t arg = 0;
      for (const auto& leaf : plan.leaves) {
        kernel.setArg(arg++,
                      leaf->chunkForDevice(chunk.deviceIndex).buffer);
      }
      if (!isVoid) {
        kernel.setArg(arg++,
                      out->chunkForDevice(chunk.deviceIndex).buffer);
      }
      kernel.setArg(arg++, std::uint32_t(chunk.count));
      bindStageArguments(plan, kernel, arg, chunk.deviceIndex);

      // The launch depends on every distinct operand's upload — piecewise
      // where split, so sub-launches pipeline against whichever transfer
      // streams last — plus any stage argument vectors. A void map may
      // scatter to arbitrary indices of its argument vectors, so it is
      // never split: one launch waits for the whole upload.
      std::vector<ocl::Event> deps;
      std::vector<UploadPieces> pieces;
      if (isVoid) {
        for (VectorState* leaf : distinct) {
          appendEvent(deps, leaf->readyEventOn(chunk.deviceIndex));
        }
      } else {
        pieces = takeUploadPieces(distinct, chunk.deviceIndex, deps);
      }
      collectStageDeps(plan, deps, chunk.deviceIndex);

      const std::size_t wg =
          effectiveWorkGroupSize(node->workGroupSize, chunk.count, device);
      const std::size_t cus =
          std::max<std::size_t>(1, device.spec().computeUnits);
      ocl::Event done = launchPipelined(
          runtime.queue(chunk.deviceIndex), kernel,
          (chunk.count + wg - 1) / wg, wg, /*span=*/wg, chunk.count,
          kMinWavesPerSlice * cus, deps, pieces);
      if (!isVoid) {
        out->recordEventOn(chunk.deviceIndex, done);
      }
      recordStageEvents(plan, done, chunk.deviceIndex);
    } catch (ocl::ClError& e) {
      e.prependContext(plan.label + " skeleton on device " +
                       std::to_string(chunk.deviceIndex));
      throw;
    }
  }
  if (!isVoid) {
    out->markDevicesModified();
  }
}

// --- Reduce plans --------------------------------------------------------

/// The associativity-only tree reduction kernel (see reduce.h for the
/// algorithm notes). `loadExpr` is the element expression at %IDX%; the
/// tree kernel loads skelcl_in[i], the fused first pass evaluates the
/// absorbed chain inline.
///
/// `pipelined` emits the variant used for piecewise-pipelined first
/// passes: the logical group count arrives as an explicit argument and
/// the group index derives from the global id, so the kernel can be
/// enqueued as offset sub-ranges covering contiguous group spans while
/// computing exactly the same per-group partials.
std::string reduceKernelSource(const std::string& kernelName,
                               const std::string& leafParams,
                               const std::string& argDecls,
                               const std::string& t,
                               const std::string& combineName,
                               const std::string& loadExpr,
                               bool pipelined) {
  const std::string wg = std::to_string(kTreeWg);
  const std::string load = substituteIndex(loadExpr, "i");
  return "\n__kernel void " + kernelName + "(" + leafParams + "__global " +
         t + "* skelcl_out, uint skelcl_n" +
         (pipelined ? ", uint skelcl_num_groups" : "") + argDecls + ") {\n"
         "  __local " + t + " skelcl_scratch[" + wg + "];\n"
         "  __local int skelcl_flags[" + wg + "];\n"
         "  uint skelcl_lid = (uint)get_local_id(0);\n" +
         (pipelined
              ? "  size_t skelcl_group = get_global_id(0) / " + wg + ";\n"
                "  size_t skelcl_groups = (size_t)skelcl_num_groups;\n"
              : "  size_t skelcl_group = get_group_id(0);\n"
                "  size_t skelcl_groups = get_num_groups(0);\n") +
         "  size_t skelcl_span =\n"
         "      (skelcl_n + skelcl_groups - 1) / skelcl_groups;\n"
         "  size_t skelcl_gstart = skelcl_group * skelcl_span;\n"
         "  size_t skelcl_gend = min(skelcl_gstart + skelcl_span,\n"
         "                           (size_t)skelcl_n);\n"
         "  size_t skelcl_chunk = (skelcl_span + " + wg + " - 1) / " + wg +
         ";\n"
         "  size_t skelcl_start = skelcl_gstart + skelcl_lid * skelcl_chunk;\n"
         "  size_t skelcl_end = min(skelcl_start + skelcl_chunk,\n"
         "                          skelcl_gend);\n"
         "  int skelcl_have = 0;\n"
         "  " + t + " skelcl_acc;\n"
         "  for (size_t i = skelcl_start; i < skelcl_end; ++i) {\n"
         "    if (skelcl_have) {\n"
         "      skelcl_acc = " + combineName + "(skelcl_acc, " + load +
         ");\n"
         "    } else {\n"
         "      skelcl_acc = " + load + ";\n"
         "      skelcl_have = 1;\n"
         "    }\n"
         "  }\n"
         "  skelcl_flags[skelcl_lid] = skelcl_have;\n"
         "  if (skelcl_have) skelcl_scratch[skelcl_lid] = skelcl_acc;\n"
         "  barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  for (uint s = 1; s < " + wg + "; s <<= 1) {\n"
         "    if (skelcl_lid % (2 * s) == 0 &&\n"
         "        skelcl_lid + s < " + wg + ") {\n"
         "      if (skelcl_flags[skelcl_lid + s]) {\n"
         "        if (skelcl_flags[skelcl_lid]) {\n"
         "          skelcl_scratch[skelcl_lid] = " + combineName +
         "(skelcl_scratch[skelcl_lid], skelcl_scratch[skelcl_lid + s]);\n"
         "        } else {\n"
         "          skelcl_scratch[skelcl_lid] =\n"
         "              skelcl_scratch[skelcl_lid + s];\n"
         "          skelcl_flags[skelcl_lid] = 1;\n"
         "        }\n"
         "      }\n"
         "    }\n"
         "    barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  }\n"
         "  if (skelcl_lid == 0) {\n"
         "    skelcl_out[skelcl_group] = skelcl_scratch[0];\n"
         "  }\n"
         "}\n";
}

/// One program per Reduce plan: the plan's functions, then — when the
/// plan absorbed a chain — the pipelined first pass skelcl_mapreduce
/// evaluating it inline, then the tree kernel skelcl_reduce over a plain
/// buffer, which runs every later pass and the cross-device combine.
std::string reduceProgramSource(const ExprNode& node, const FusionPlan& plan,
                                bool fused) {
  const std::string& t = node.outType;
  std::string src = registeredTypeDefinitions() + plan.functionsSource;
  if (fused) {
    src += reduceKernelSource("skelcl_mapreduce", leafParams(plan),
                              plan.argDecls, t, plan.rootFuncName,
                              plan.loadExpr, /*pipelined=*/true);
  }
  return src + reduceKernelSource("skelcl_reduce",
                                  "__global const " + t + "* skelcl_in, ",
                                  "", t, plan.rootFuncName,
                                  "skelcl_in[%IDX%]", /*pipelined=*/false);
}

/// Tree-reduces `count` elements of `in` (element size `elem`) down to
/// one with skelcl_reduce; the first pass waits on `deps`. Mirrors the
/// eager Reduce::reduceOnDevice, including the count==1 passthrough.
std::pair<ocl::Buffer, ocl::Event> reduceTree(
    Runtime& runtime, ocl::Program& program, ocl::Buffer in,
    std::size_t count, std::size_t elem, std::size_t deviceIndex,
    std::vector<ocl::Event> deps) {
  auto& queue = runtime.queue(deviceIndex);
  const auto& device = runtime.devices()[deviceIndex];
  ocl::Event last;
  if (!deps.empty()) {
    last = deps.front();
  }
  while (count > 1) {
    const std::size_t groups =
        std::min(kReduceMaxGroups, (count + kTreeWg - 1) / kTreeWg);
    ocl::Buffer out =
        runtime.context().createBuffer(device, groups * elem);
    ocl::Kernel kernel = program.createKernel("skelcl_reduce");
    kernel.setArg(0, in);
    kernel.setArg(1, out);
    kernel.setArg(2, std::uint32_t(count));
    last = queue.enqueueNDRange(
        kernel, ocl::NDRange1D{groups * kTreeWg, kTreeWg}, deps);
    deps = {last};
    in = std::move(out);
    count = groups;
  }
  return {std::move(in), std::move(last)};
}

void runReduce(const std::shared_ptr<ExprNode>& node,
               const std::shared_ptr<VectorState>& out,
               const FusionPlan& plan, Runtime& runtime) {
  prepareStageArguments(plan);

  VectorState& leaf0 = *plan.leaves.front();
  const std::vector<VectorState*> distinct = distinctLeaves(plan);
  const std::size_t elem = node->outElemSize;
  const bool fused = plan.fusedStages > 0;

  ocl::Program program =
      runtime.programFor(reduceProgramSource(*node, plan, fused));

  // Per-device partial reduction; under the copy distribution one copy
  // suffices. Partials stay in canonical chunk order (device order =
  // element order), so the combine below needs associativity only.
  struct Partial {
    ocl::Buffer buffer;
    ocl::Event ready;
    std::size_t deviceIndex;
  };
  std::vector<Partial> partials;
  const auto& chunks = leaf0.chunks();
  const bool copyDist = leaf0.distribution() == Distribution::Copy;
  for (const Chunk& chunk : chunks) {
    if (chunk.count == 0) {
      continue;
    }
    try {
      std::vector<ocl::Event> deps;
      ocl::Buffer in = chunk.buffer;
      std::size_t count = chunk.count;
      if (fused) {
        // Fused first pass: the absorbed chain evaluates inline while
        // the tree reduces — the reduce.map rewrite. Harvest any split
        // upload pieces so the tree groups can start on the prefix of
        // the input while its tail still streams; a sub-launch is worth
        // it once each piece unlocks whole groups.
        const auto& device = runtime.devices()[chunk.deviceIndex];
        collectStageDeps(plan, deps, chunk.deviceIndex);
        const std::vector<UploadPieces> pieces =
            takeUploadPieces(distinct, chunk.deviceIndex, deps);
        const std::size_t groups =
            std::min(kReduceMaxGroups, (count + kTreeWg - 1) / kTreeWg);
        ocl::Buffer mapped =
            runtime.context().createBuffer(device, groups * elem);
        ocl::Kernel kernel = program.createKernel("skelcl_mapreduce");
        std::size_t arg = 0;
        for (const auto& leaf : plan.leaves) {
          kernel.setArg(arg++,
                        leaf->chunkForDevice(chunk.deviceIndex).buffer);
        }
        kernel.setArg(arg++, mapped);
        kernel.setArg(arg++, std::uint32_t(count));
        kernel.setArg(arg++, std::uint32_t(groups));
        bindStageArguments(plan, kernel, arg, chunk.deviceIndex);
        ocl::Event first = launchPipelined(
            runtime.queue(chunk.deviceIndex), kernel, groups, kTreeWg,
            /*span=*/(count + groups - 1) / groups, count,
            /*minGroupsPerSlice=*/2, deps, pieces);
        recordStageEvents(plan, first, chunk.deviceIndex);
        deps = {first};
        in = std::move(mapped);
        count = groups;
      } else {
        // Unfused: one leaf and no stage arguments (Reduce takes none).
        appendEvent(deps, chunk.ready);
      }
      auto reduced = reduceTree(runtime, program, std::move(in), count,
                                elem, chunk.deviceIndex, std::move(deps));
      partials.push_back(Partial{std::move(reduced.first),
                                 std::move(reduced.second),
                                 chunk.deviceIndex});
    } catch (ocl::ClError& e) {
      e.prependContext(plan.label + " skeleton on device " +
                       std::to_string(chunk.deviceIndex));
      throw;
    }
    if (copyDist) {
      break;
    }
  }
  COMMON_CHECK(!partials.empty());

  if (partials.size() == 1) {
    out->adoptDeviceBuffer(std::move(partials[0].buffer), 1,
                           partials[0].deviceIndex,
                           std::move(partials[0].ready));
    return;
  }

  // Combine the per-device results on device 0 (see reduce.h): all reads
  // non-blocking, the staging upload waits on them through events, the
  // final value is consumed at the Scalar's getValue().
  std::vector<std::uint8_t> values(partials.size() * elem);
  std::vector<ocl::Event> reads;
  for (std::size_t i = 0; i < partials.size(); ++i) {
    reads.push_back(
        runtime.queue(partials[i].deviceIndex)
            .enqueueReadBuffer(partials[i].buffer, 0, elem,
                               values.data() + i * elem,
                               /*blocking=*/false, {partials[i].ready}));
  }
  try {
    const auto& device0 = runtime.devices()[0];
    ocl::Buffer staging =
        runtime.context().createBuffer(device0, values.size());
    ocl::Event staged = runtime.queue(0).enqueueWriteBuffer(
        staging, 0, values.size(), values.data(), reads);
    auto finalReduce = reduceTree(runtime, program, std::move(staging),
                                  partials.size(), elem, 0, {staged});
    out->adoptDeviceBuffer(std::move(finalReduce.first), 1, 0,
                           std::move(finalReduce.second));
  } catch (ocl::ClError& e) {
    e.prependContext(plan.label + " skeleton on device 0");
    throw;
  }
}

// --- Scan plans ----------------------------------------------------------

/// The per-work-group Blelloch block kernel (see scan.h for the
/// algorithm notes). `loadExpr` is the element expression at %IDX%
/// feeding the up-sweep.
std::string scanBlockKernelSource(const std::string& kernelName,
                                  const std::string& leafParams,
                                  const std::string& argDecls,
                                  const std::string& t,
                                  const std::string& combineName,
                                  const std::string& identity,
                                  const std::string& loadExpr) {
  const std::string wg = std::to_string(kTreeWg);
  const std::string half = std::to_string(kTreeWg / 2);
  const std::string last = std::to_string(kTreeWg - 1);
  return "\n__kernel void " + kernelName + "(" + leafParams + "__global " +
         t + "* skelcl_out, __global " + t +
         "* skelcl_sums, uint skelcl_n" + argDecls + ") {\n"
         "  __local " + t + " skelcl_tmp[" + wg + "];\n"
         "  uint skelcl_lid = (uint)get_local_id(0);\n"
         "  size_t skelcl_gid = get_global_id(0);\n"
         "  if (skelcl_gid < skelcl_n) {\n"
         "    skelcl_tmp[skelcl_lid] = " +
         substituteIndex(loadExpr, "skelcl_gid") +
         ";\n"
         "  } else {\n"
         "    skelcl_tmp[skelcl_lid] = " + identity + ";\n"
         "  }\n"
         "  barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  uint skelcl_offset = 1;\n"
         "  for (uint d = " + half + "; d > 0; d >>= 1) {\n"
         "    if (skelcl_lid < d) {\n"
         "      uint ai = skelcl_offset * (2 * skelcl_lid + 1) - 1;\n"
         "      uint bi = skelcl_offset * (2 * skelcl_lid + 2) - 1;\n"
         "      skelcl_tmp[bi] = " + combineName +
         "(skelcl_tmp[ai], skelcl_tmp[bi]);\n"
         "    }\n"
         "    skelcl_offset <<= 1;\n"
         "    barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  }\n"
         "  if (skelcl_lid == 0) {\n"
         "    skelcl_sums[get_group_id(0)] = skelcl_tmp[" + last + "];\n"
         "    skelcl_tmp[" + last + "] = " + identity + ";\n"
         "  }\n"
         "  barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  for (uint d = 1; d < " + wg + "; d <<= 1) {\n"
         "    skelcl_offset >>= 1;\n"
         "    if (skelcl_lid < d) {\n"
         "      uint ai = skelcl_offset * (2 * skelcl_lid + 1) - 1;\n"
         "      uint bi = skelcl_offset * (2 * skelcl_lid + 2) - 1;\n"
         "      " + t + " skelcl_t = skelcl_tmp[ai];\n"
         "      skelcl_tmp[ai] = skelcl_tmp[bi];\n"
         "      skelcl_tmp[bi] = " + combineName +
         "(skelcl_tmp[ai], skelcl_t);\n"
         "    }\n"
         "    barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  }\n"
         "  if (skelcl_gid < skelcl_n) {\n"
         "    skelcl_out[skelcl_gid] = skelcl_tmp[skelcl_lid];\n"
         "  }\n"
         "}\n";
}

std::string scanAddKernelSource(const std::string& t,
                                const std::string& combineName) {
  return "\n__kernel void skelcl_scan_add(__global " + t +
         "* skelcl_data, __global const " + t +
         "* skelcl_offsets, uint skelcl_n) {\n"
         "  size_t skelcl_gid = get_global_id(0);\n"
         "  if (skelcl_gid < skelcl_n) {\n"
         "    skelcl_data[skelcl_gid] = " + combineName +
         "(skelcl_offsets[get_group_id(0)], skelcl_data[skelcl_gid]);\n"
         "  }\n"
         "}\n";
}

/// One program per Scan plan: the plan's functions, then — when the
/// plan absorbed a chain — skelcl_mapscan, the first level's block
/// kernel evaluating it inline, then the block kernel skelcl_scan_block
/// over a plain buffer (every block-sum level) and the uniform add pass.
std::string scanProgramSource(const ExprNode& node, const FusionPlan& plan,
                              bool fused) {
  const std::string& t = node.outType;
  std::string src = registeredTypeDefinitions() + plan.functionsSource;
  if (fused) {
    src += scanBlockKernelSource("skelcl_mapscan", leafParams(plan),
                                 plan.argDecls, t, plan.rootFuncName,
                                 node.identityExpr, plan.loadExpr);
  }
  return src +
         scanBlockKernelSource("skelcl_scan_block",
                               "__global const " + t + "* skelcl_in, ", "",
                               t, plan.rootFuncName, node.identityExpr,
                               "skelcl_in[%IDX%]") +
         scanAddKernelSource(t, plan.rootFuncName);
}

/// Scans `n` elements into `out` with the block kernel `blockKernel`,
/// recursing over the per-group sums and adding them back uniformly —
/// the eager Scan::scanBuffer, parameterized on element size. Level 0
/// passes the plan: its block kernel reads the plan's leaves and stage
/// arguments. Every block-sum level passes no plan and reads `in`.
ocl::Event scanInto(Runtime& runtime, ocl::Program& program,
                    const char* blockKernel, const FusionPlan* plan,
                    const ocl::Buffer& in, const ocl::Buffer& out,
                    std::size_t n, std::size_t elem, std::size_t deviceIndex,
                    const std::vector<ocl::Event>& deps) {
  auto& queue = runtime.queue(deviceIndex);
  const auto& device = runtime.devices()[deviceIndex];
  const std::size_t groups = (n + kTreeWg - 1) / kTreeWg;
  ocl::Buffer sums =
      runtime.context().createBuffer(device, groups * elem);

  ocl::Kernel block = program.createKernel(blockKernel);
  std::size_t arg = 0;
  if (plan != nullptr) {
    for (const auto& leaf : plan->leaves) {
      block.setArg(arg++, leaf->chunkForDevice(deviceIndex).buffer);
    }
  } else {
    block.setArg(arg++, in);
  }
  block.setArg(arg++, out);
  block.setArg(arg++, sums);
  block.setArg(arg++, std::uint32_t(n));
  if (plan != nullptr) {
    bindStageArguments(*plan, block, arg, deviceIndex);
  }
  ocl::Event blocked = queue.enqueueNDRange(
      block, ocl::NDRange1D{groups * kTreeWg, kTreeWg}, deps);
  if (plan != nullptr) {
    recordStageEvents(*plan, blocked, deviceIndex);
  }
  if (groups <= 1) {
    return blocked;
  }

  ocl::Buffer sumsScanned =
      runtime.context().createBuffer(device, groups * elem);
  ocl::Event sumsDone =
      scanInto(runtime, program, "skelcl_scan_block", nullptr, sums,
               sumsScanned, groups, elem, deviceIndex, {blocked});
  ocl::Kernel add = program.createKernel("skelcl_scan_add");
  add.setArg(0, out);
  add.setArg(1, sumsScanned);
  add.setArg(2, std::uint32_t(n));
  return queue.enqueueNDRange(
      add, ocl::NDRange1D{groups * kTreeWg, kTreeWg}, {blocked, sumsDone});
}

void runScan(const std::shared_ptr<ExprNode>& node,
             const std::shared_ptr<VectorState>& out,
             const FusionPlan& plan, Runtime& runtime) {
  // Single-device skeleton: placement gathered the primary operand.
  VectorState& leaf0 = *plan.leaves.front();
  prepareStageArguments(plan);

  const std::size_t n = node->outCount;
  const std::size_t deviceIndex = leaf0.chunks().front().deviceIndex;
  const bool fused = plan.fusedStages > 0;
  ocl::Program program =
      runtime.programFor(scanProgramSource(*node, plan, fused));

  try {
    ocl::Buffer outBuf = runtime.context().createBuffer(
        runtime.devices()[deviceIndex], n * node->outElemSize);
    std::vector<ocl::Event> deps;
    for (VectorState* leaf : distinctLeaves(plan)) {
      appendEvent(deps, leaf->readyEventOn(deviceIndex));
    }
    collectStageDeps(plan, deps, deviceIndex);
    ocl::Event done = scanInto(
        runtime, program, fused ? "skelcl_mapscan" : "skelcl_scan_block",
        &plan, ocl::Buffer(), outBuf, n, node->outElemSize, deviceIndex,
        deps);
    out->adoptDeviceBuffer(std::move(outBuf), n, deviceIndex,
                           std::move(done));
  } catch (ocl::ClError& e) {
    e.prependContext(plan.label + " skeleton on device " +
                     std::to_string(deviceIndex));
    throw;
  }
}

void evaluateNode(const std::shared_ptr<ExprNode>& node,
                  const std::shared_ptr<VectorState>& out) {
  EvalGuard guard(node->evaluating);
  DepthGuard depth;
  auto& runtime = Runtime::instance();
  runtime.requireInit();

  FusionPlan plan = buildFusionPlan(node, runtime.fusionEnabled());

  // Children the rewrite pass could not absorb run first, materializing
  // their intermediate vectors — the cost fusion exists to avoid, so it
  // is what the fusion counters measure.
  for (const FusionPlan::Materialize& m : plan.materializeFirst) {
    const std::shared_ptr<ExprNode>& child = m.node;
    if (child->evaluated) {
      continue;
    }
    if (m.declined != nullptr) {
      trace::recordDecision(m.declined);
    }
    forceExprNode(child);
    const std::uint64_t bytes =
        std::uint64_t(child->outCount) * child->outElemSize;
    runtime.noteIntermediate(bytes);
    if (trace::Recorder::enabled()) {
      trace::Recorder::instance().bumpCounter(
          "intermediate_bytes", trace::kNoDevice, trace::now(), bytes);
    }
  }
  if (plan.fusedStages > 0) {
    runtime.noteFusedEvaluation(plan.fusedStages);
  }

  const std::size_t spanSize =
      node->inputs.empty() ? 0 : node->inputs.front().state->size();
  trace::ScopedHostSpan span(trace::HostKind::Skeleton, plan.label.c_str(),
                             trace::kNoDevice, spanSize);
  try {
    placeInputs(*node, plan.leaves);
    switch (node->op) {
      case ExprNode::Op::Map:
      case ExprNode::Op::Zip:
        runElementwise(node, out, plan, runtime);
        break;
      case ExprNode::Op::Reduce:
        runReduce(node, out, plan, runtime);
        break;
      case ExprNode::Op::Scan:
        runScan(node, out, plan, runtime);
        break;
      case ExprNode::Op::Stencil:
        runStencil(node, out, plan, runtime);
        break;
      case ExprNode::Op::SparseGather:
        runSparseGather(node, out, plan, runtime);
        break;
    }
  } catch (...) {
    // A failed evaluation is never retried: the error already surfaced
    // to whoever forced the node, and a rerun could double-apply work.
    // Poison the node so later consumer flushes skip it, and detach it
    // from the output so reads do not force it again.
    node->evaluated = true;
    if (out != nullptr) {
      out->clearPending();
    }
    throw;
  }
  node->evaluated = true;
  if (out != nullptr) {
    out->clearPending();
  }
}

} // namespace

void forceExprNode(const std::shared_ptr<ExprNode>& node) {
  if (node == nullptr || node->evaluated || node->evaluating) {
    return;
  }
  // `node` may alias the output state's own pending_ member, which an
  // evaluation clears (adoptDeviceBuffer does so mid-flight, and a
  // scheduler drain clears it from underneath us) — pin the node first
  // so it outlives that reset.
  std::shared_ptr<ExprNode> keep = node;
  // A force at the top of the evaluation stack is a true consumption
  // point: drain the async scheduler first, so every outstanding
  // independent job's commands are enqueued before this consumer's
  // blocking wait (the drain may evaluate `keep` itself — recheck).
  // Forces nested inside an evaluation, and forces issued *by* the
  // drain, fall through to the direct path.
  if (t_evalDepth == 0) {
    Scheduler& scheduler = Scheduler::instance();
    if (scheduler.shouldDrain()) {
      scheduler.drain(keep);
      if (keep->evaluated || keep->evaluating) {
        return;
      }
    }
  }
  std::shared_ptr<VectorState> out = keep->output.lock();
  if (out == nullptr) {
    // The result vector died unread; the computation is dead code.
    keep->evaluated = true;
    return;
  }
  evaluateNode(keep, out);
}

void invokeSkeleton(ExprNode node, const std::shared_ptr<VectorState>& out,
                    bool explicitOutput) {
  auto call = std::make_shared<ExprNode>(std::move(node));
  std::vector<std::shared_ptr<VectorState>> states;
  states.reserve(call->inputs.size());
  for (const ExprNode::Input& input : call->inputs) {
    states.push_back(input.state);
  }
  placeInputs(*call, states);

  for (ExprNode::Input& input : call->inputs) {
    input.node = input.state->pendingNode();
    if (input.node != nullptr && !input.node->evaluated) {
      input.node->fanout += 1;
    }
  }
  // Host mutations of an input must snapshot this node's value first.
  for (const ExprNode::Input& input : call->inputs) {
    input.state->addConsumer(call);
  }

  if (explicitOutput || out == nullptr || call->args.hasVectorEntries()) {
    if (out != nullptr) {
      // `out` may alias an input, in whose consumer list this very node
      // already sits; the guard keeps it from forcing itself while the
      // *old* value's deferred readers are snapshotted.
      EvalGuard guard(call->evaluating);
      try {
        out->forcePending();
        out->forceConsumers();
      } catch (...) {
        // The call never runs: poison it, and take back the reads it
        // added, so its pending children still fuse with later readers.
        for (const ExprNode::Input& input : call->inputs) {
          if (input.node != nullptr && !input.node->evaluated) {
            input.node->fanout -= 1;
          }
        }
        call->evaluated = true;
        throw;
      }
    }
    call->output = out;
    evaluateNode(call, out);
    return;
  }
  call->output = out;
  out->installPending(call, call->outCount);
  // Register the job with the async scheduler: the next top-of-stack
  // consumption point dispatches every outstanding job, not just the
  // one being consumed. No-op under SKELCL_ASYNC=0.
  Scheduler::instance().noteDeferred(call);
}

} // namespace skelcl::detail
