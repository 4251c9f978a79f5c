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

/// Places a stencil input in row-aligned blocks when every device's row
/// share covers the radius, and returns false, placing nothing, when
/// some share does not (the grid then goes to one device). A no-op when
/// the input already has that layout. The placement rule (expr.cpp)
/// applies it, both at the call and before runStencil, which reads the
/// choice back from the input's distribution.
bool placeInRowBlocks(VectorState& in, const StencilParams& P);

void runStencil(const std::shared_ptr<ExprNode>& node,
                const std::shared_ptr<VectorState>& out,
                const FusionPlan& plan, Runtime& runtime);

void runSparseGather(const std::shared_ptr<ExprNode>& node,
                     const std::shared_ptr<VectorState>& out,
                     const FusionPlan& plan, Runtime& runtime);

} // namespace skelcl::detail
