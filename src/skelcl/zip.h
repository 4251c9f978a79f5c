// The Zip skeleton (paper Sec. III-B, Eq. 2):
//
//   zip (+) [x0, ...], [y0, ...] = [x0 + y0, ...]
//
// "Thus, it is a generalized dyadic form of Map. By chaining Zip
//  skeletons, variadic forms of Map can be implemented."
//
// Invocation is lazy (see detail/expr.h): the size check and operand
// geometry alignment still happen at the call site, but the kernel only
// launches when the result is consumed — deferred Map producers feeding
// either operand are absorbed into the zip kernel (detail/fusion.h).
#pragma once

#include <string>

#include "skelcl/arguments.h"
#include "skelcl/detail/expr.h"
#include "skelcl/detail/source_utils.h"
#include "skelcl/error.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl {

template <typename Tin, typename Tout = Tin>
class Zip {
public:
  explicit Zip(std::string source)
      : function_(detail::UserFunction::parse(std::move(source))) {}

  void setWorkGroupSize(std::size_t size) { workGroupSize_ = size; }

  Vector<Tout> operator()(const Vector<Tin>& left,
                          const Vector<Tin>& right) {
    return (*this)(left, right, Arguments{});
  }

  Vector<Tout> operator()(const Vector<Tin>& left, const Vector<Tin>& right,
                          const Arguments& args) {
    Vector<Tout> output;
    run(left, right, args, output, /*explicitOutput=*/false);
    return output;
  }

  /// Explicit-output form, e.g. the OSEM update step `update(f, c, f)`
  /// where the output aliases the left input.
  void operator()(const Vector<Tin>& left, const Vector<Tin>& right,
                  Vector<Tout>& output) {
    run(left, right, Arguments{}, output, /*explicitOutput=*/true);
  }

  void operator()(const Vector<Tin>& left, const Vector<Tin>& right,
                  const Arguments& args, Vector<Tout>& output) {
    run(left, right, args, output, /*explicitOutput=*/true);
  }

private:
  void run(const Vector<Tin>& left, const Vector<Tin>& right,
           const Arguments& args, Vector<Tout>& output,
           bool explicitOutput) {
    // The call-site span: covers node construction (and, on the eager
    // paths, the whole launch). Fused evaluation emits its own span.
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "Zip",
                               trace::kNoDevice, left.size());
    auto& runtime = detail::Runtime::instance();
    runtime.requireInit();
    if (left.size() != right.size()) {
      // Typed: callers can catch ZipSizeMismatch and read both sizes
      // and distributions instead of parsing the message.
      throw ZipSizeMismatch(left.size(), right.size(),
                            left.state().distribution(),
                            right.state().distribution());
    }
    detail::invokeSkeleton(
        {.op = detail::ExprNode::Op::Zip,
         .function = function_,
         .args = args,
         .workGroupSize = workGroupSize_,
         .inputs = {{left.stateHandle()}, {right.stateHandle()}},
         .outType = typeName<Tout>(),
         .outElemSize = sizeof(Tout),
         .outCount = left.size()},
        output.stateHandle(), explicitOutput);
  }

  std::shared_ptr<const detail::UserFunction> function_;
  std::size_t workGroupSize_ = 0;
};

} // namespace skelcl
