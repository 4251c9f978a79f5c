// Evaluator for the lazy expression DAG. forceExprNode() is the single
// entry point every consumption site funnels into; it builds the fusion
// plan for the forced node *at force time* — children already
// materialized (extra readers, host mutations) are simply leaves — and
// executes it with exactly the launch geometry, event plumbing, and
// failure atomicity the eager skeletons had. A single-stage plan is the
// old eager execution; a fused plan runs one kernel where the chain ran
// several, with no intermediate vectors.
//
// Every evaluation resolves exactly one program, generated from its plan
// (a Reduce or Scan program carries the plain tree kernels its later
// passes run and, when the plan absorbed a chain, the fused first pass
// beside them), builds its command list (detail/commands.h) — a launch
// that may split against upload pieces through launchPipelined — and
// executes it.
#include "skelcl/detail/expr.h"

#include <algorithm>
#include <cstdint>

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
/// Map, Zip and Reduce read it in its own layout, and Scan on one
/// device. Stencil and SparseGather read it in the layout forecast to
/// finish the call first: row-aligned blocks or replicated beside a
/// block-partitioned matrix, else one device (placeStencilInput,
/// placeSparseOperands). Every other input is placed in the first
/// input's layout. A pending input is left for its own evaluation; while
/// the first one is pending, the others are placed in their own layouts.
/// invokeSkeleton applies the rule to a call's inputs, so upload faults
/// surface at the call site. evaluateNode applies it again to the plan's
/// leaves: the inputs that were pending at the call, and the inputs of
/// an absorbed chain, which its own calls placed for a different op.
/// Everything else is already in place, and placing it again is free.
/// Only the evaluation (`evaluating`) files the irregular layouts as
/// Decisions, so each call records its layout once.
void placeInputs(const ExprNode& node,
                 const std::vector<std::shared_ptr<VectorState>>& inputs,
                 bool evaluating) {
  VectorState& first = *inputs.front();
  if (!first.hasPending()) {
    switch (node.op) {
      case ExprNode::Op::Stencil:
        placeStencilInput(first, node, evaluating);
        break;
      case ExprNode::Op::SparseGather:
        placeSparseOperands(first, node, evaluating);
        break;
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
    std::vector<Dep>& deps) {
  std::vector<UploadPieces> pieces;
  pieces.reserve(leaves.size());
  for (VectorState* leaf : leaves) {
    pieces.push_back(leaf->takeUploadPieces(deviceIndex));
    if (pieces.back().empty()) {
      deps.push_back(leaf->readyEventOn(deviceIndex));
    }
  }
  return pieces;
}

/// Launch operands for the plan's leaves on `deviceIndex`, one per
/// occurrence.
std::vector<Operand> leafOperands(const FusionPlan& plan,
                                  std::size_t deviceIndex) {
  std::vector<Operand> args;
  for (const auto& leaf : plan.leaves) {
    args.push_back(Operand::chunk(*leaf, deviceIndex));
  }
  return args;
}

// --- element-wise plans (Map/Zip roots) ---------------------------------

const char* elementwiseKernelName(const FusionPlan& plan) {
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

  // Per-device chunks are disjoint, so any visit order is legal (the
  // schedule fuzzer shuffles it).
  CommandList list(plan.label + " skeleton", out.get());
  const auto& chunks = leaf0.chunks();
  for (std::size_t idx : runtime.chunkVisitOrder(chunks.size())) {
    const Chunk& chunk = chunks[idx];
    if (chunk.count == 0) {
      continue;
    }
    const std::size_t d = chunk.deviceIndex;
    const auto& device = runtime.devices()[d];
    std::vector<Operand> args = leafOperands(plan, d);
    if (!isVoid) {
      args.push_back(Operand::output());
    }
    args.push_back(Operand::uint(chunk.count));
    appendStageArgs(plan, args);

    // The launch depends on every distinct operand's upload — piecewise
    // where split, so sub-launches pipeline against whichever transfer
    // streams last — plus any stage argument vectors. A void map may
    // scatter to arbitrary indices of its argument vectors, so it is
    // never split: one launch waits for the whole upload.
    std::vector<Dep> deps;
    std::vector<UploadPieces> pieces;
    if (isVoid) {
      for (VectorState* leaf : distinct) {
        deps.push_back(leaf->readyEventOn(d));
      }
    } else {
      pieces = takeUploadPieces(distinct, d, deps);
    }
    collectStageDeps(plan, deps, d);

    const std::size_t wg =
        effectiveWorkGroupSize(node->workGroupSize, chunk.count, device);
    const std::size_t cus =
        std::max<std::size_t>(1, device.spec().computeUnits);
    launchPipelined(list,
                    Command::launch(d, elementwiseKernelName(plan),
                                    chunk.count, wg, std::move(args), {}),
                    (chunk.count + wg - 1) / wg, wg, /*span=*/wg,
                    chunk.count, kMinWavesPerSlice * cus, deps, pieces);
  }
  execute(list, program);
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

/// Where a Reduce call's list leaves a partial result, when, and on
/// which device.
struct Partial {
  Operand buffer;
  Dep ready;
  std::size_t device;
};

/// Appends the tree reduction of `count` elements of `in` (element size
/// `elem`) down to one with skelcl_reduce; the first pass waits on
/// `deps`. Mirrors the eager Reduce::reduceOnDevice, including the
/// count==1 passthrough.
Partial reduceTree(CommandList& list, Operand in, std::size_t count,
                   std::size_t elem, std::size_t deviceIndex,
                   std::vector<Dep> deps) {
  Dep last = deps.empty() ? Dep() : deps.front();
  while (count > 1) {
    const std::size_t groups =
        std::min(kReduceMaxGroups, (count + kTreeWg - 1) / kTreeWg);
    const std::size_t out = list.scratch(deviceIndex, groups * elem);
    last = Dep::on(list.push(Command::launch(
        deviceIndex, "skelcl_reduce", groups * kTreeWg, kTreeWg,
        {in, Operand::scratch(out), Operand::uint(count)}, std::move(deps))));
    deps = {last};
    in = Operand::scratch(out);
    count = groups;
  }
  return {in, std::move(last), deviceIndex};
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
  CommandList list(plan.label + " skeleton");
  std::vector<Partial> partials;
  const auto& chunks = leaf0.chunks();
  const bool copyDist = leaf0.distribution() == Distribution::Copy;
  for (const Chunk& chunk : chunks) {
    if (chunk.count == 0) {
      continue;
    }
    const std::size_t d = chunk.deviceIndex;
    std::vector<Dep> deps;
    Operand in = Operand::chunk(leaf0, d);
    std::size_t count = chunk.count;
    if (fused) {
      // Fused first pass: the absorbed chain evaluates inline while the
      // tree reduces — the reduce.map rewrite. Harvest any split upload
      // pieces so the tree groups can start on the prefix of the input
      // while its tail still streams; a sub-launch is worth it once each
      // piece unlocks whole groups.
      collectStageDeps(plan, deps, d);
      const std::vector<UploadPieces> pieces =
          takeUploadPieces(distinct, d, deps);
      const std::size_t groups =
          std::min(kReduceMaxGroups, (count + kTreeWg - 1) / kTreeWg);
      const std::size_t mapped = list.scratch(d, groups * elem);
      std::vector<Operand> args = leafOperands(plan, d);
      args.push_back(Operand::scratch(mapped));
      args.push_back(Operand::uint(count));
      args.push_back(Operand::uint(groups));
      appendStageArgs(plan, args);
      const std::size_t first = launchPipelined(
          list,
          Command::launch(d, "skelcl_mapreduce", groups * kTreeWg, kTreeWg,
                          std::move(args), {}),
          groups, kTreeWg, /*span=*/(count + groups - 1) / groups, count,
          /*minGroupsPerSlice=*/2, deps, pieces);
      deps = {Dep::on(first)};
      in = Operand::scratch(mapped);
      count = groups;
    } else {
      // Unfused: one leaf and no stage arguments (Reduce takes none).
      deps.push_back(chunk.ready);
    }
    partials.push_back(reduceTree(list, in, count, elem, d, std::move(deps)));
    if (copyDist) {
      break;
    }
  }
  COMMON_CHECK(!partials.empty());

  // Several partials combine on device 0 (see reduce.h): every read is
  // non-blocking, the staging upload waits on them through events, and
  // the final value is consumed at the Scalar's getValue().
  Partial result = partials.front();
  if (partials.size() > 1) {
    const std::size_t bytes = partials.size() * elem;
    list.hostBytes = bytes;
    std::vector<Dep> reads;
    for (const Partial& partial : partials) {
      reads.push_back(Dep::on(list.push({.kind = Command::Kind::Read,
                                         .device = partial.device,
                                         .deps = {partial.ready},
                                         .src = partial.buffer,
                                         .dstOffset = reads.size() * elem,
                                         .bytes = elem})));
    }
    const Operand staging = Operand::scratch(list.scratch(0, bytes));
    const std::size_t staged = list.push({.kind = Command::Kind::Write,
                                          .deps = std::move(reads),
                                          .dst = staging,
                                          .bytes = bytes});
    result = reduceTree(list, staging, partials.size(), elem, 0,
                        {Dep::on(staged)});
  }
  const Executed done = execute(list, program);
  out->adoptDeviceBuffer(done.buffer(result.buffer), 1, result.device,
                         done.event(result.ready));
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

/// Appends the scan of `n` elements into `out` with the block kernel
/// `blockKernel`, recursing over the per-group sums and adding them back
/// uniformly — the eager Scan::scanBuffer, parameterized on element
/// size; returns the index of its last command. Level 0 passes the plan:
/// its block kernel reads the plan's leaves and stage arguments. Every
/// block-sum level passes no plan and reads `in`.
std::size_t scanInto(CommandList& list, const char* blockKernel,
                     const FusionPlan* plan, const Operand& in,
                     const Operand& out, std::size_t n, std::size_t elem,
                     std::size_t deviceIndex, std::vector<Dep> deps) {
  const std::size_t groups = (n + kTreeWg - 1) / kTreeWg;
  const Operand sums =
      Operand::scratch(list.scratch(deviceIndex, groups * elem));

  std::vector<Operand> args =
      plan != nullptr ? leafOperands(*plan, deviceIndex)
                      : std::vector<Operand>{in};
  args.push_back(out);
  args.push_back(sums);
  args.push_back(Operand::uint(n));
  if (plan != nullptr) {
    appendStageArgs(*plan, args);
  }
  Command block = Command::launch(deviceIndex, blockKernel, n, kTreeWg,
                                  std::move(args), std::move(deps));
  block.records = plan != nullptr;
  const std::size_t blocked = list.push(std::move(block));
  if (groups <= 1) {
    return blocked;
  }

  const Operand sumsScanned =
      Operand::scratch(list.scratch(deviceIndex, groups * elem));
  const std::size_t sumsDone =
      scanInto(list, "skelcl_scan_block", nullptr, sums, sumsScanned, groups,
               elem, deviceIndex, {Dep::on(blocked)});
  return list.push(Command::launch(
      deviceIndex, "skelcl_scan_add", n, kTreeWg,
      {out, sumsScanned, Operand::uint(n)},
      {Dep::on(blocked), Dep::on(sumsDone)}));
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

  CommandList list(plan.label + " skeleton");
  const std::size_t outBuf =
      list.scratch(deviceIndex, n * node->outElemSize);
  std::vector<Dep> deps;
  for (VectorState* leaf : distinctLeaves(plan)) {
    deps.push_back(leaf->readyEventOn(deviceIndex));
  }
  collectStageDeps(plan, deps, deviceIndex);
  const std::size_t last =
      scanInto(list, fused ? "skelcl_mapscan" : "skelcl_scan_block", &plan,
               Operand(), Operand::scratch(outBuf), n, node->outElemSize,
               deviceIndex, std::move(deps));
  const Executed done = execute(list, program);
  out->adoptDeviceBuffer(done.scratch[outBuf], n, deviceIndex,
                         done.events[last]);
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
  // is what the "intermediate_bytes" counter measures.
  for (const FusionPlan::Materialize& m : plan.materializeFirst) {
    const std::shared_ptr<ExprNode>& child = m.node;
    if (child->evaluated) {
      continue;
    }
    if (m.declined != nullptr) {
      trace::recordDecision(m.declined);
    }
    forceExprNode(child);
    if (trace::Recorder::enabled()) {
      trace::Recorder::instance().bumpCounter(
          "intermediate_bytes", trace::kNoDevice, trace::now(),
          std::uint64_t(child->outCount) * child->outElemSize);
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
    placeInputs(*node, plan.leaves, /*evaluating=*/true);
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
  placeInputs(*call, states, /*evaluating=*/false);

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
