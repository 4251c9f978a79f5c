// The Map skeleton (paper Sec. III-B, Eq. 1):
//
//   map f [x0, ..., xn-1] = [f(x0), ..., f(xn-1)]
//
// Customized by a unary function given as OpenCL-C source. Additional
// arguments (Sec. III-C) extend the function's parameter list; a
// Map<T, void> produces no output vector and works purely through
// side-effects on vector arguments — the form list-mode OSEM uses.
//
// Invocation is lazy: a call builds an expression-DAG node
// (detail/expr.h) and nothing launches until the result is consumed, so
// chains of element-wise skeletons fuse into single kernels
// (detail/fusion.h). Calls with vector arguments and explicit-output
// forms evaluate eagerly, as does Map<T, void> (pure side effects).
#pragma once

#include <string>

#include "skelcl/arguments.h"
#include "skelcl/detail/expr.h"
#include "skelcl/detail/source_utils.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl {

template <typename Tin, typename Tout = Tin>
class Map {
public:
  /// `source` is the customizing function, e.g.
  ///   Map<float> dbl("float f(float x) { return 2.0f * x; }");
  explicit Map(std::string source)
      : function_(detail::UserFunction::parse(std::move(source))) {}

  /// Optional tuning knob; the paper notes the work-group size "can have
  /// a considerable impact on performance". 0 = SkelCL default: 256, or
  /// less for a launch too small to fill every compute unit with it.
  void setWorkGroupSize(std::size_t size) { workGroupSize_ = size; }

  Vector<Tout> operator()(const Vector<Tin>& input) {
    return (*this)(input, Arguments{});
  }

  Vector<Tout> operator()(const Vector<Tin>& input, const Arguments& args) {
    Vector<Tout> output;
    run(input, args, output, /*explicitOutput=*/false);
    return output;
  }

  /// Explicit-output form; `output` may alias `input`.
  void operator()(const Vector<Tin>& input, const Arguments& args,
                  Vector<Tout>& output) {
    run(input, args, output, /*explicitOutput=*/true);
  }

private:
  void run(const Vector<Tin>& input, const Arguments& args,
           Vector<Tout>& output, bool explicitOutput) {
    // The call-site span: covers node construction (and, on the eager
    // paths, the whole launch). Fused evaluation emits its own span.
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "Map",
                               trace::kNoDevice, input.size());
    detail::Runtime::instance().requireInit();
    detail::invokeSkeleton({.op = detail::ExprNode::Op::Map,
                            .function = function_,
                            .args = args,
                            .workGroupSize = workGroupSize_,
                            .inputs = {{input.stateHandle()}},
                            .outType = typeName<Tout>(),
                            .outElemSize = sizeof(Tout),
                            .outCount = input.size()},
                           output.stateHandle(), explicitOutput);
  }

  std::shared_ptr<const detail::UserFunction> function_;
  std::size_t workGroupSize_ = 0;
};

/// Map without an output vector: the user function returns void and works
/// through side effects on Arguments vectors (paper Sec. IV-B). Always
/// eager — there is no result vector whose read could force it later.
/// The node runs as one whole-chunk launch per device chunk.
template <typename Tin>
class Map<Tin, void> {
public:
  explicit Map(std::string source)
      : function_(detail::UserFunction::parse(std::move(source))) {}

  void setWorkGroupSize(std::size_t size) { workGroupSize_ = size; }

  void operator()(const Vector<Tin>& input, const Arguments& args) {
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "Map<void>",
                               trace::kNoDevice, input.size());
    detail::Runtime::instance().requireInit();
    detail::invokeSkeleton({.op = detail::ExprNode::Op::Map,
                            .function = function_,
                            .args = args,
                            .workGroupSize = workGroupSize_,
                            .inputs = {{input.stateHandle()}},
                            .outType = "void",
                            .outElemSize = 0,
                            .outCount = input.size()},
                           nullptr);
  }

private:
  std::shared_ptr<const detail::UserFunction> function_;
  std::size_t workGroupSize_ = 0;
};

} // namespace skelcl
