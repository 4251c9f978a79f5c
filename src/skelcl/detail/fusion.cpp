#include "skelcl/detail/fusion.h"

#include <algorithm>

#include "skelcl/detail/source_utils.h"

namespace skelcl::detail {

namespace {

/// Transitive absorption stops here. Chains this deep are pathological;
/// the cap bounds generated-source size and the argument list length.
constexpr std::size_t kMaxStages = 16;

const char* opName(ExprNode::Op op) {
  switch (op) {
    case ExprNode::Op::Map: return "Map";
    case ExprNode::Op::Zip: return "Zip";
    case ExprNode::Op::Reduce: return "Reduce";
    case ExprNode::Op::Scan: return "Scan";
    case ExprNode::Op::Stencil: return "Stencil";
    case ExprNode::Op::SparseGather: return "SparseGather";
  }
  return "?";
}

/// True for ops whose generated kernel can evaluate an absorbed child
/// chain inline. Stencil/SparseGather roots read their input through a
/// packed/gathered access pattern the load-splice rewrite cannot
/// express, so they are opaque: children always materialize first.
bool fusableRoot(ExprNode::Op op) {
  return op == ExprNode::Op::Map || op == ExprNode::Op::Zip ||
         op == ExprNode::Op::Reduce || op == ExprNode::Op::Scan;
}

bool deferred(const std::shared_ptr<ExprNode>& node) {
  return node != nullptr && !node->evaluated && !node->evaluating;
}

/// Why an element-wise `child` is not spliced into a `parentOp` parent
/// holding `stageCount` stages: the parent cannot evaluate a chain
/// inline, the child has other readers, or the plan is at kMaxStages.
/// Returns the Decision naming the rule (FusionPlan::Materialize), or
/// null when none applies or the child is not element-wise.
const char* declineReason(const ExprNode& child, ExprNode::Op parentOp,
                          std::size_t stageCount) {
  if (child.op != ExprNode::Op::Map && child.op != ExprNode::Op::Zip) {
    return nullptr;
  }
  if (!fusableRoot(parentOp)) {
    return "fusion.declined: opaque root";
  }
  if (child.fanout != 1) {
    return "fusion.declined: fanout";
  }
  return stageCount < kMaxStages ? nullptr : "fusion.declined: depth";
}

/// The absorption rule: `input`'s producer is spliced into the kernel of
/// its parent when rewriting is enabled, the producer is a still-
/// deferred element-wise stage, and no declineReason applies.
bool absorbable(const ExprNode::Input& input, ExprNode::Op parentOp,
                bool fusionEnabled, std::size_t stageCount) {
  const std::shared_ptr<ExprNode>& child = input.node;
  return fusionEnabled && deferred(child) &&
         (child->op == ExprNode::Op::Map ||
          child->op == ExprNode::Op::Zip) &&
         declineReason(*child, parentOp, stageCount) == nullptr;
}

class Emitter {
public:
  Emitter(FusionPlan& plan, bool fusionEnabled, bool rename)
      : plan_(plan), fusionEnabled_(fusionEnabled), rename_(rename) {}

  /// Emits `node` as stage k (= current stage count): splices its
  /// (renamed) functions and argument declarations into the plan, then
  /// recurses into its inputs. Returns the node's value expression at
  /// %IDX% for element-wise ops; Reduce/Scan roots instead deposit
  /// their element-load expression in plan.loadExpr.
  std::string emitStage(const std::shared_ptr<ExprNode>& node) {
    const std::size_t k = plan_.stages.size();
    const std::string fnPrefix =
        rename_ ? "skelcl_f" + std::to_string(k) + "_" : "";
    FusionStage stage;
    stage.node = node;
    stage.argPrefix = rename_ ? "f" + std::to_string(k) + "_" : "";
    const std::string funcName = fnPrefix + node->function->name();
    plan_.stages.push_back(stage);
    plan_.functionsSource +=
        renameUserFunctions(*node->function, fnPrefix) + "\n";
    plan_.argDecls += node->args.declSuffix(stage.argPrefix);

    std::vector<std::string> loads;
    loads.reserve(node->inputs.size());
    for (const ExprNode::Input& input : node->inputs) {
      loads.push_back(emitLoad(input, node->op));
    }

    switch (node->op) {
      case ExprNode::Op::Map:
        return funcName + "(" + loads[0] +
               node->args.callSuffix(stage.argPrefix) + ")";
      case ExprNode::Op::Zip:
        return funcName + "(" + loads[0] + ", " + loads[1] +
               node->args.callSuffix(stage.argPrefix) + ")";
      case ExprNode::Op::Reduce:
      case ExprNode::Op::Scan:
      case ExprNode::Op::Stencil:
      case ExprNode::Op::SparseGather:
        plan_.rootFuncName = funcName;
        plan_.loadExpr = loads[0];
        return "";
    }
    return "";
  }

  void finish(const std::shared_ptr<ExprNode>& root) {
    if (plan_.stages.size() == 1) {
      plan_.label = opName(root->op);
      if (root->outType == "void") {
        plan_.label += "<void>";
      }
    } else {
      plan_.label = "Fused(";
      for (std::size_t i = 0; i < plan_.stages.size(); ++i) {
        if (i != 0) {
          plan_.label += "∘"; // ∘ — root first: f∘g applies g first
        }
        plan_.label += plan_.stages[i].node->function->name();
      }
      plan_.label += ")";
    }
  }

private:
  std::string emitLoad(const ExprNode::Input& input, ExprNode::Op parentOp) {
    const std::shared_ptr<ExprNode>& child = input.node;
    if (absorbable(input, parentOp, fusionEnabled_, plan_.stages.size())) {
      ++plan_.fusedStages;
      return emitStage(child);
    }
    if (deferred(child)) {
      // The child stays a separate launch (rewrites off, non-element-
      // wise, or declined).
      plan_.materializeFirst.push_back(
          {child, fusionEnabled_ ? declineReason(*child, parentOp,
                                                 plan_.stages.size())
                                 : nullptr});
    }
    const std::size_t idx = plan_.leaves.size();
    plan_.leaves.push_back(input.state);
    plan_.leafTypes.push_back(input.state->elementTypeName());
    return "skelcl_in" + std::to_string(idx) + "[%IDX%]";
  }

  FusionPlan& plan_;
  bool fusionEnabled_;
  bool rename_;
};

} // namespace

FusionPlan buildFusionPlan(const std::shared_ptr<ExprNode>& root,
                           bool fusionEnabled) {
  // Capture-safe renaming is needed exactly when some stage is absorbed,
  // i.e. when a direct input of the root is absorbable while the plan
  // holds the root alone. Otherwise the user's names stay untouched, so
  // "fusion found nothing" and "fusion disabled" emit the same source
  // (and cache key).
  const bool rename =
      std::any_of(root->inputs.begin(), root->inputs.end(),
                  [&](const ExprNode::Input& input) {
                    return absorbable(input, root->op, fusionEnabled,
                                      /*stageCount=*/1);
                  });
  FusionPlan plan;
  Emitter emitter(plan, fusionEnabled, rename);
  const std::string rootExpr = emitter.emitStage(root);
  if (root->op == ExprNode::Op::Map || root->op == ExprNode::Op::Zip) {
    plan.loadExpr = rootExpr;
  }
  emitter.finish(root);
  return plan;
}

std::string substituteIndex(const std::string& expr,
                            const std::string& idx) {
  static const std::string kPlaceholder = "%IDX%";
  std::string out;
  out.reserve(expr.size());
  std::size_t pos = 0;
  while (pos < expr.size()) {
    const std::size_t found = expr.find(kPlaceholder, pos);
    if (found == std::string::npos) {
      out.append(expr, pos, expr.size() - pos);
      break;
    }
    out.append(expr, pos, found - pos);
    out += idx;
    pos = found + kPlaceholder.size();
  }
  return out;
}

void prepareStageArguments(const FusionPlan& plan) {
  for (const FusionStage& stage : plan.stages) {
    stage.node->args.prepare();
  }
}

void appendStageArgs(const FusionPlan& plan, std::vector<Operand>& args) {
  for (const FusionStage& stage : plan.stages) {
    args.push_back(Operand::arguments(stage.node->args));
  }
}

void collectStageDeps(const FusionPlan& plan, std::vector<Dep>& deps,
                      std::size_t deviceIndex) {
  for (const FusionStage& stage : plan.stages) {
    stage.node->args.collectDeps(deps, deviceIndex);
  }
}

} // namespace skelcl::detail
