// Device-side state of a CSR matrix (skelcl/sparse.h): its three arrays
// are vector states, staged like any vector by VectorState::place, in
// the row layout the call's placement chose: all rows on one device, or
// rows partitioned with the runtime's block weights (the partitioner
// Vector blocks use, so a heterogeneous machine shapes sparse row chunks
// exactly like dense element chunks). Device d's rowPtr chunk holds its
// rowCount + 1 *absolute* entries, so neighboring chunks overlap in the
// cut row's pointer; its colIdx and values chunks hold the row range's
// nonzeros, starting at element rowPtr[rowBegin]. Kernels subtract that
// base (the colIdx chunk's offset) instead of the host rewriting the
// index arrays. The matrix is immutable: the host copies never change,
// so the staged chunks stay valid for the matrix's lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "skelcl/vector.h"

namespace skelcl::detail {

class CsrState {
public:
  template <typename T>
  CsrState(std::size_t rows, std::size_t cols,
           std::vector<std::uint32_t> rowPtr,
           std::vector<std::uint32_t> colIdx, std::vector<T> values)
      : rows_(rows), cols_(cols), rowPtr_(std::move(rowPtr)),
        colIdx_(std::move(colIdx)),
        values_(std::make_shared<TypedVectorState<T>>(std::move(values))) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return colIdx_.rawHost().size(); }
  const VectorState& rowPtr() const { return rowPtr_; }
  const VectorState& colIdx() const { return colIdx_; }
  const VectorState& values() const { return *values_; }

  /// The three arrays' chunks for rows laid out in `dist` (Block: the
  /// row partition; Single: every row on `device`): the rowPtr chunks,
  /// and the nonzero chunks colIdx and values share.
  std::pair<std::vector<Chunk>, std::vector<Chunk>> layouts(
      Distribution dist, std::size_t device) const;

  /// Places the three arrays in those chunks. Idempotent: place keeps
  /// chunks that already have the layout.
  void place(Distribution dist, std::size_t device);

private:
  std::size_t rows_;
  std::size_t cols_;
  TypedVectorState<std::uint32_t> rowPtr_;
  TypedVectorState<std::uint32_t> colIdx_;
  std::shared_ptr<VectorState> values_;
};

} // namespace skelcl::detail
