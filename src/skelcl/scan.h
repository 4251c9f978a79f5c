// The Scan skeleton (paper Sec. III-B, Eq. 4): exclusive prefix
// combination,
//
//   scan (+) [x0, ..., xn-1] = [id, x0, x0+x1, ..., x0+...+xn-2]
//
// "The implementation of Scan provided in SkelCL is a modified version of
//  [Harris et al., GPU Gems 3]. It is highly optimized and makes heavy
//  use of local memory, as well as it tries to avoid memory bank
//  conflicts."
//
// Structure (detail/expr.cpp): per-work-group Blelloch up-sweep/down-
// sweep in local memory producing block sums, a recursive scan of the
// block sums, and a uniform combine pass. Runs on a single device;
// vectors with other distributions are gathered first (the paper's
// evaluation does not use multi-GPU Scan).
//
// Invocation is lazy: a deferred element-wise producer is absorbed into
// the first Blelloch level (scan f . map g), evaluating the chain while
// the tree loads — no intermediate vector.
#pragma once

#include <string>
#include <type_traits>

#include "skelcl/detail/expr.h"
#include "skelcl/detail/source_utils.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl {

template <typename T>
class Scan {
public:
  /// `identity` is the OpenCL-C expression for the identity element of
  /// the operator (e.g. "0" for +, "1" for *, "-INFINITY" for max).
  explicit Scan(std::string source, std::string identity = "0")
      : function_(detail::UserFunction::parse(std::move(source))),
        identity_(std::move(identity)) {}

  Vector<T> operator()(const Vector<T>& input) {
    static_assert(std::is_arithmetic_v<T>,
                  "Scan currently supports arithmetic element types");
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "Scan",
                               trace::kNoDevice, input.size());
    auto& runtime = detail::Runtime::instance();
    runtime.requireInit();
    if (input.size() == 0) {
      // Scan of nothing is nothing; skip redistribution, allocation,
      // and every device command.
      return Vector<T>();
    }
    Vector<T> output;
    detail::invokeSkeleton({.op = detail::ExprNode::Op::Scan,
                            .function = function_,
                            .identityExpr = identity_,
                            .inputs = {{input.stateHandle()}},
                            .outType = typeName<T>(),
                            .outElemSize = sizeof(T),
                            .outCount = input.size()},
                           output.stateHandle());
    return output;
  }

private:
  std::shared_ptr<const detail::UserFunction> function_;
  std::string identity_;
};

} // namespace skelcl
