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

/// The placement rule's irregular cases (expr.cpp placeInputs). Each
/// forecasts when the call would finish in its multi-device layout and
/// on one device — the device a Single input lives on, else the one on
/// which the call, started once its compute engine frees, would finish
/// first — and places the operands in the layout forecast to finish
/// first (one device on a tie). A no-op when they already have that
/// layout. With `record`, files the choice as a Decision carrying both
/// forecasts (trace::HostSpanRecord: `value` the multi-device one, which
/// reads "never" when that layout cannot run the call, `value2` the
/// single-device one).
///
/// Stencil: row-aligned blocks, a layout that cannot run a call with a
/// device's row share below the radius; the evaluator reads the choice
/// back from the input's distribution.
void placeStencilInput(VectorState& in, const ExprNode& node, bool record);

/// SparseGather: block-partitioned rows with `x` replicated; the
/// evaluator reads the choice back from the matrix's row layout.
void placeSparseOperands(VectorState& x, const ExprNode& node, bool record);

void runStencil(const std::shared_ptr<ExprNode>& node,
                const std::shared_ptr<VectorState>& out,
                const FusionPlan& plan, Runtime& runtime);

void runSparseGather(const std::shared_ptr<ExprNode>& node,
                     const std::shared_ptr<VectorState>& out,
                     const FusionPlan& plan, Runtime& runtime);

} // namespace skelcl::detail
