// Sparse containers and the SparseGather skeleton for irregular
// workloads. A CsrMatrix holds an immutable compressed-sparse-row
// matrix; SparseGather is a gather-apply-scatter primitive over it:
//
//   out[i] = fold combine identity
//              [ gather(values[k], x[colIdx[k]]) | k in row i ]
//
// With gather = multiply and combine = plus this is SpMV; with gather =
// "x[j] saturating-plus 1" and combine = min it expands a BFS frontier;
// a PageRank iteration is SpMV over pre-scaled values followed by a Map
// (see examples/). Both customizing functions are binary OpenCL-C
// functions; `identityExpr` is the fold's start value, e.g. "0.0f":
//
//   SparseGather<float> spmv(
//       "float g(float a, float xj) { return a * xj; }",
//       "float c(float a, float b) { return a + b; }", "0.0f");
//
// Rows are block-partitioned across the devices with the runtime's
// block weights (a heterogeneous machine shapes sparse chunks like
// dense ones); the dense operand is replicated, so a gather can
// touch any column without inter-device traffic. One work-item folds
// one row — empty rows yield the identity, duplicate column entries
// simply contribute once per entry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "skelcl/arguments.h"
#include "skelcl/detail/csr_state.h"
#include "skelcl/detail/expr.h"
#include "skelcl/detail/source_utils.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl {

/// Immutable CSR matrix handle (cheap to copy — shared state). The
/// constructor validates the structure up front so device code can index
/// unchecked; duplicate columns within a row are legal.
template <typename T>
class CsrMatrix {
public:
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::uint32_t> rowPtr,
            std::vector<std::uint32_t> colIdx, std::vector<T> values) {
    if (rowPtr.size() != rows + 1) {
      throw common::InvalidArgument(
          "CsrMatrix rowPtr has " + std::to_string(rowPtr.size()) +
          " entries; want rows + 1 = " + std::to_string(rows + 1));
    }
    if (!rowPtr.empty() && rowPtr.front() != 0) {
      throw common::InvalidArgument("CsrMatrix rowPtr must start at 0");
    }
    for (std::size_t i = 0; i + 1 < rowPtr.size(); ++i) {
      if (rowPtr[i] > rowPtr[i + 1]) {
        throw common::InvalidArgument(
            "CsrMatrix rowPtr decreases at row " + std::to_string(i));
      }
    }
    if (rowPtr.back() != colIdx.size() || values.size() != colIdx.size()) {
      throw common::InvalidArgument(
          "CsrMatrix index/value arrays disagree: rowPtr ends at " +
          std::to_string(rowPtr.back()) + ", " +
          std::to_string(colIdx.size()) + " column(s), " +
          std::to_string(values.size()) + " value(s)");
    }
    for (std::uint32_t col : colIdx) {
      if (col >= cols) {
        throw common::InvalidArgument(
            "CsrMatrix column index " + std::to_string(col) +
            " out of range for " + std::to_string(cols) + " column(s)");
      }
    }
    // Kernels index rows/nonzeros with uint.
    if (rows > 0xFFFFFFFFull || cols > 0xFFFFFFFFull) {
      throw common::InvalidArgument("CsrMatrix dimensions exceed 2^32");
    }
    state_ = std::make_shared<detail::CsrState>(
        rows, cols, std::move(rowPtr), std::move(colIdx), std::move(values));
  }

  std::size_t rows() const { return state_->rows(); }
  std::size_t cols() const { return state_->cols(); }
  std::size_t nnz() const { return state_->nnz(); }

  detail::CsrState& state() const { return *state_; }
  const std::shared_ptr<detail::CsrState>& stateHandle() const {
    return state_;
  }

private:
  std::shared_ptr<detail::CsrState> state_;
};

template <typename T>
class SparseGather {
public:
  /// `gatherSource`: binary function (matrix value, gathered operand
  /// element); `combineSource`: associative binary fold; `identityExpr`:
  /// OpenCL-C expression for the fold's start value.
  SparseGather(std::string gatherSource, std::string combineSource,
               std::string identityExpr)
      : gather_(detail::UserFunction::parse(std::move(gatherSource))),
        combine_(detail::UserFunction::parse(std::move(combineSource))),
        identity_(std::move(identityExpr)) {}

  void setWorkGroupSize(std::size_t size) { workGroupSize_ = size; }

  Vector<T> operator()(const CsrMatrix<T>& matrix, const Vector<T>& x,
                       const Arguments& args = Arguments{}) {
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "SparseGather",
                               trace::kNoDevice, matrix.nnz());
    auto& runtime = detail::Runtime::instance();
    runtime.requireInit();
    if (x.size() != matrix.cols()) {
      throw common::InvalidArgument(
          "SparseGather operand has " + std::to_string(x.size()) +
          " element(s); matrix has " + std::to_string(matrix.cols()) +
          " column(s)");
    }
    Vector<T> output;
    detail::invokeSkeleton(
        {.op = detail::ExprNode::Op::SparseGather,
         .function = gather_,
         .identityExpr = identity_,
         .args = args,
         .workGroupSize = workGroupSize_,
         .inputs = {{x.stateHandle()}},
         .outType = typeName<T>(),
         .outElemSize = sizeof(T),
         .outCount = matrix.rows(),
         .sparse = std::make_shared<detail::SparseParams>(
             detail::SparseParams{matrix.stateHandle(), combine_})},
        output.stateHandle());
    return output;
  }

private:
  std::shared_ptr<const detail::UserFunction> gather_;
  std::shared_ptr<const detail::UserFunction> combine_;
  std::string identity_;
  std::size_t workGroupSize_ = 0;
};

} // namespace skelcl
