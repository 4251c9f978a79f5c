// Lazy expression DAG (ROADMAP: "lazy expression graph with rewrite-rule
// fusion"). A skeleton call no longer launches kernels: it builds an
// ExprNode describing the computation and installs it on the result
// vector's state as a *pending producer*. Nothing runs until a true
// consumption point forces the node — a host read (operator[], iteration,
// download), a Scalar read, an explicit redistribution, or a side-
// effecting skeleton that may observe or overwrite the data. At force
// time a rewrite pass (detail/fusion.h) walks the DAG and fuses chains
// of element-wise stages into single kernels:
//
//   map f . map g        ->  map (f . g)
//   zip f . map g        ->  zip with the g-load spliced in
//   reduce f . map g     ->  mapReduce (skelcl::MapReduce is exactly
//                             this chain: Reduce of its Map's result)
//   scan f . map g       ->  scan with a fused first level
//
// Eager-evaluation rule (applied once, in invokeSkeleton): a call whose
// Arguments reference Vectors is evaluated immediately at the call site
// (its semantics depend on — and may mutate — external state the host
// is free to change afterwards), as are explicit-output forms and
// Map<T, void>. Laziness applies to pure chains; fusion applies to
// every evaluation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "skelcl/arguments.h"

namespace skelcl::detail {

class CsrState;
class UserFunction;

/// Stencil root descriptor (see skelcl/stencil.h). Irregular roots are
/// opaque to the fusion rewriter; the evaluator in detail/irregular.cpp
/// consumes this verbatim. `boundary` mirrors skelcl::Boundary (0 =
/// clamp, 1 = wrap, 2 = constant); `constArg` carries the out-of-range
/// fill value as a ready-made kernel argument (bound with prefix "cv_")
/// when the policy is constant.
struct StencilParams {
  std::size_t radius = 1;
  int boundary = 0;
  std::size_t width = 0; // row length of a row-major 2D grid; 0 = 1D
  Arguments constArg;
};

/// SparseGather root descriptor: the CSR operand (three vector states,
/// placed by CsrState::place) plus the fold's combine
/// function; ExprNode::function is the gather function.
struct SparseParams {
  std::shared_ptr<CsrState> csr;
  std::shared_ptr<const UserFunction> combine;
};

/// One deferred skeleton invocation. Nodes are immutable once built;
/// `evaluated`/`output` are the evaluation bookkeeping.
class ExprNode {
public:
  enum class Op { Map, Zip, Reduce, Scan, Stencil, SparseGather };

  /// One input operand: the vector state read, plus the node that was
  /// pending on it at the call (null for concrete data; invokeSkeleton
  /// links it). The child link is what the fusion pass follows; the
  /// state is the fallback leaf when the child is not absorbed (or was
  /// forced meanwhile).
  struct Input {
    std::shared_ptr<VectorState> state;
    std::shared_ptr<ExprNode> node{};
  };

  Op op = Op::Map;
  /// The customizing function, parsed once when the skeleton was built
  /// and shared by every node that skeleton creates.
  std::shared_ptr<const UserFunction> function;
  std::string identityExpr{}; // Scan/SparseGather: identity expression
  Arguments args{};           // additional arguments (scalars/structs
                              // only when the node is deferred)
  std::size_t workGroupSize = 0; // user override; 0 = SkelCL default
  std::vector<Input> inputs;

  std::string outType;          // result element type name; "void" for
                                // a Map run for its side effects only
  std::size_t outElemSize = 0;  // sizeof(result element)
  std::size_t outCount = 0;     // result element count
  std::size_t fanout = 0;       // deferred parents reading this node

  /// Irregular-root descriptors, part of the node the skeleton call
  /// builds. Members a call may leave out carry default initializers.
  std::shared_ptr<StencilParams> stencil{}; // Op::Stencil only
  std::shared_ptr<SparseParams> sparse{};   // Op::SparseGather only

  bool evaluated = false;
  bool evaluating = false; // re-entrancy guard during evaluation
  std::weak_ptr<VectorState> output{};
};

/// Materializes a deferred skeleton computation. No-op when the node has
/// already been evaluated or is being evaluated further up the call
/// stack.
void forceExprNode(const std::shared_ptr<ExprNode>& node);

/// The one call path of every skeleton. `node` arrives complete (its
/// inputs carry states only) and is
///   1. placed: its concrete inputs are staged where the op reads them
///      (placeInputs), so upload faults surface at the call site;
///   2. linked into the DAG: each input's pending producer becomes a
///      child edge, and the node registers as a consumer of every input
///      (so host mutations snapshot it first);
///   3. evaluated now into `out` when the call has an explicit output,
///      vector Arguments (its semantics depend on external state the
///      host may change afterwards) or no output at all (`out` is null
///      exactly for Map<T, void>); otherwise deferred as `out`'s pending
///      producer.
/// A call that throws before it runs (while placing, or while an eager
/// call snapshots `out`'s old value) leaves no reader on its inputs'
/// pending producers.
void invokeSkeleton(ExprNode node, const std::shared_ptr<VectorState>& out,
                    bool explicitOutput = false);

} // namespace skelcl::detail
