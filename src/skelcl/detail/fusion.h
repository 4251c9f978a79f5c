// Rewrite-rule fusion pass over the lazy expression DAG (detail/expr.h).
//
// buildFusionPlan() walks a node's producer chain at force time and
// decides, per input edge, whether the child stage is *absorbed* into
// the parent's kernel or *materialized* as its own launch first. A child
// is absorbed when rewriting is enabled, the child is a still-deferred
// element-wise stage (Map or Zip), and this parent is its only reader —
// the classic rules map f . map g -> map (f.g), zip absorption, and
// reduce/scan-of-map, applied transitively up to a stage cap.
//
// Fusion happens at the OpenCL-C source level: every absorbed stage's
// customizing function is spliced into one translation unit, renamed
// with a per-stage prefix (skelcl_f<k>_) to avoid capture between
// stages, and the chain becomes a single load *expression* evaluated in
// the consumer's kernel — no intermediate buffer, no extra launch.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "skelcl/detail/commands.h"
#include "skelcl/detail/expr.h"

namespace skelcl::detail {

/// One stage of a (possibly fused) kernel: the node it came from plus
/// the capture-safe prefix its arguments got.
struct FusionStage {
  std::shared_ptr<ExprNode> node;
  std::string argPrefix; // prefix its Arguments use in the kernel
};

/// The executable shape of one forced node after rewriting.
struct FusionPlan {
  /// Concrete input vectors, one entry per *occurrence* in the fused
  /// expression, in load order: occurrence i is kernel parameter
  /// skelcl_in<i>.
  std::vector<std::shared_ptr<VectorState>> leaves;
  std::vector<std::string> leafTypes;

  /// A still-deferred child that was NOT absorbed: it must be forced —
  /// materializing its intermediate vector — before this plan launches.
  struct Materialize {
    std::shared_ptr<ExprNode> node;
    /// The Decision naming why the rewrite declined an element-wise
    /// child ("fusion.declined: fanout", "...: depth", "...: opaque
    /// root"); null when rewriting is off or for other ops.
    const char* declined = nullptr;
  };
  std::vector<Materialize> materializeFirst;

  /// Absorbed stages, root first. Their Arguments are bound in this
  /// order after the fixed kernel parameters.
  std::vector<FusionStage> stages;

  std::string functionsSource; // renamed user sources, concatenated
  /// Expression producing the (element-wise part of the) result for the
  /// element at index %IDX%. For Map/Zip roots this is the full result;
  /// for Reduce/Scan roots it is the element feeding the root operator.
  std::string loadExpr;
  std::string rootFuncName; // Reduce/Scan: root operator after renaming
  std::string argDecls;     // concatenated declSuffix of all stages

  std::size_t fusedStages = 0; // children absorbed (0 = single stage)
  std::string label;           // trace/error label, e.g. "Fused(f∘g)"
};

/// Builds the plan for `root`. With `fusionEnabled` false no child is
/// ever absorbed — every stage launches separately, the differential
/// baseline — but the same evaluator runs the plan either way.
FusionPlan buildFusionPlan(const std::shared_ptr<ExprNode>& root,
                           bool fusionEnabled);

// Stage-argument plumbing shared by every evaluator (dense and
// irregular): each walks plan.stages in order, root first.

/// Uploads every stage's vector arguments before launch.
void prepareStageArguments(const FusionPlan& plan);

/// Appends every stage's Arguments as launch operands, root first.
void appendStageArgs(const FusionPlan& plan, std::vector<Operand>& args);

/// Appends the events the stages' Arguments must wait for on
/// `deviceIndex`.
void collectStageDeps(const FusionPlan& plan, std::vector<Dep>& deps,
                      std::size_t deviceIndex);

/// Replaces every %IDX% in `expr` with `idx`.
std::string substituteIndex(const std::string& expr, const std::string& idx);

} // namespace skelcl::detail
