// Device-side state of a CSR matrix (skelcl/sparse.h). A CsrMatrix is
// not a Vector: its per-device rowPtr slices *overlap* — the cut row's
// pointer appears on both neighbors — so the chunk machinery of
// VectorState does not fit. The matrix is immutable after construction,
// which keeps the staging logic one-way: partition the rows with the
// runtime's block weights (largest-remainder, weight-aware — the same
// partitioner Vector blocks use, so a heterogeneous machine shapes
// sparse row chunks exactly like dense element chunks), slice
// rowPtr/colIdx/values per device, upload once, and keep that geometry
// for the matrix's lifetime. Row-pointer slices stay absolute; kernels
// subtract the slice's base nnz (CsrChunk::nnzBegin) instead, so the
// host never rewrites the index arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ocl/buffer.h"
#include "ocl/event.h"

namespace skelcl::detail {

/// One device's share of a CSR matrix: rows [rowBegin, rowBegin +
/// rowCount) with their index/value slices. `rowPtr` holds rowCount + 1
/// *absolute* entries; `colIdx`/`values` hold the nnzCount entries
/// starting at absolute nonzero nnzBegin.
struct CsrChunk {
  std::size_t deviceIndex = 0;
  std::size_t rowBegin = 0;
  std::size_t rowCount = 0;
  std::size_t nnzBegin = 0;
  std::size_t nnzCount = 0;
  ocl::Buffer rowPtr;
  ocl::Buffer colIdx;
  ocl::Buffer values;
  /// Event of the last upload into this chunk's buffers; consumers pass
  /// it as a dependency instead of calling finish().
  ocl::Event ready;
};

/// The matrix itself, untyped like VectorState: the values are held as
/// bytes (valueSize_ per value) aliasing the moved-in std::vector<T>, so
/// the evaluator (detail/irregular.cpp) and ExprNode hold this class.
class CsrState {
public:
  template <typename T>
  CsrState(std::size_t rows, std::size_t cols,
           std::vector<std::uint32_t> rowPtr,
           std::vector<std::uint32_t> colIdx, std::vector<T> values)
      : rows_(rows), cols_(cols), rowPtr_(std::move(rowPtr)),
        colIdx_(std::move(colIdx)), valueSize_(sizeof(T)) {
    auto owner = std::make_shared<const std::vector<T>>(std::move(values));
    values_ = std::shared_ptr<const std::byte>(
        owner, reinterpret_cast<const std::byte*>(owner->data()));
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return colIdx_.size(); }
  const std::vector<CsrChunk>& chunks() const { return chunks_; }

  /// Partitions the rows with the runtime's block weights and uploads
  /// each device's slices. Idempotent: the first call fixes the
  /// geometry.
  void ensureOnDevices();

private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::uint32_t> rowPtr_;
  std::vector<std::uint32_t> colIdx_;
  std::size_t valueSize_;
  std::shared_ptr<const std::byte> values_;
  std::vector<CsrChunk> chunks_;
};

} // namespace skelcl::detail
