// The Reduce skeleton (paper Sec. III-B, Eq. 3):
//
//   reduce (+) [x0, ..., xn-1] = x0 + ... + xn-1
//
// "SkelCL requires the operator to be associative, such that it can be
//  applied to arbitrarily sized subranges of the input vector in
//  parallel. [...] To improve the performance, SkelCL saves the
//  intermediate results in the device's fast local memory."
//
// The execution (detail/expr.cpp) is associativity-only (no
// commutativity needed): every work-item reduces a *contiguous*
// subrange, and the local-memory tree combines adjacent partial results
// in element order. On a block-distributed vector each device reduces
// its block; the per-device results are combined with one final launch
// on device 0.
//
// Invocation is lazy: the call builds an expression-DAG node and the
// reduction runs when the Scalar is read. A deferred element-wise
// producer feeding the reduce is absorbed into the first reduction pass
// (reduce f . map g -> mapReduce — the rewrite the MapReduce skeleton
// is a facade for).
#pragma once

#include <string>

#include "skelcl/detail/expr.h"
#include "skelcl/detail/source_utils.h"
#include "skelcl/scalar.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl {

template <typename T>
class Reduce {
public:
  /// `identity` is the operator's identity element, returned when the
  /// input is empty (e.g. 0 for +, 1 for *). Reducing an empty vector
  /// launches nothing.
  explicit Reduce(std::string source, T identity = T{})
      : function_(detail::UserFunction::parse(std::move(source))),
        identity_(identity) {}

  Scalar<T> operator()(const Vector<T>& input) {
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "Reduce",
                               trace::kNoDevice, input.size());
    auto& runtime = detail::Runtime::instance();
    runtime.requireInit();
    if (input.size() == 0) {
      return Scalar<T>(identity_);
    }
    Vector<T> holder;
    detail::invokeSkeleton({.op = detail::ExprNode::Op::Reduce,
                            .function = function_,
                            .inputs = {{input.stateHandle()}},
                            .outType = typeName<T>(),
                            .outElemSize = sizeof(T),
                            .outCount = 1},
                           holder.stateHandle());
    return Scalar<T>(std::move(holder));
  }

private:
  std::shared_ptr<const detail::UserFunction> function_;
  T identity_{};
};

} // namespace skelcl
