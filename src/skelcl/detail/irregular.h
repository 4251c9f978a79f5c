// Evaluators and kernel-source generators for the irregular skeleton
// roots (Op::Stencil, Op::SparseGather). Split out of expr.cpp: these
// ops are opaque to the fusion rewriter (their input access patterns —
// halo-packed windows, CSR-indexed gathers — cannot be expressed as a
// load splice), so they share only the plan scaffolding with the dense
// evaluators, not the codegen.
#pragma once

#include <memory>
#include <string>

#include "skelcl/detail/expr.h"
#include "skelcl/detail/fusion.h"

namespace skelcl::detail {

class Runtime;

void runStencil(const std::shared_ptr<ExprNode>& node,
                const std::shared_ptr<VectorState>& out,
                const FusionPlan& plan, Runtime& runtime,
                const std::string& salt);

void runSparseGather(const std::shared_ptr<ExprNode>& node,
                     const std::shared_ptr<VectorState>& out,
                     const FusionPlan& plan, Runtime& runtime,
                     const std::string& salt);

} // namespace skelcl::detail
