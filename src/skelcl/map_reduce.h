// MapReduce — a composed skeleton (extension beyond the IPDPS 2011 paper;
// later SkelCL work added composed skeletons along these lines).
//
//   mapreduce f (+) [x0 .. xn-1]  =  f(x0) + f(x1) + ... + f(xn-1)
//
// A facade over the expression DAG (detail/expr.h): a call builds
// reduce (+) . map f and evaluates it at the call site. The fusion pass
// rewrites that chain into one skelcl_mapreduce kernel — the map runs
// inside the reduction's accumulation loop, with no intermediate vector
// and no extra launch; with fusion off the chain runs as Map then Reduce.
// tests/skelcl/map_reduce_test.cpp checks the semantics.
#pragma once

#include <string>

#include "skelcl/detail/expr.h"
#include "skelcl/detail/source_utils.h"
#include "skelcl/scalar.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl {

template <typename Tin, typename Tout = Tin>
class MapReduce {
public:
  /// `mapSource` defines a unary function Tin -> Tout; `reduceSource` an
  /// associative binary operator on Tout. `identity` is the reduce
  /// operator's identity element, returned for an empty input (no
  /// launch happens then).
  MapReduce(std::string mapSource, std::string reduceSource,
            Tout identity = Tout{})
      : map_(detail::UserFunction::parse(std::move(mapSource))),
        reduce_(detail::UserFunction::parse(std::move(reduceSource))),
        identity_(identity) {}

  /// Eager, like the other explicit evaluations: the launches are
  /// enqueued before the call returns; the Scalar read waits for them.
  Scalar<Tout> operator()(const Vector<Tin>& input) {
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "MapReduce",
                               trace::kNoDevice, input.size());
    detail::Runtime::instance().requireInit();
    if (input.size() == 0) {
      return Scalar<Tout>(identity_);
    }
    // The map's result is pending on `mapped` only for the reduce node
    // to read; it is not handed to the async scheduler as a job of its
    // own, since the reduce evaluates right here.
    Vector<Tout> mapped;
    auto map = detail::makeExprNode(
        detail::ExprNode::Op::Map, map_, Arguments{},
        /*workGroupSize=*/0, {input.stateHandle()}, typeName<Tout>(),
        sizeof(Tout), input.size());
    map->output = mapped.stateHandle();
    mapped.stateHandle()->installPending(map, input.size());
    auto reduce = detail::makeExprNode(
        detail::ExprNode::Op::Reduce, reduce_, Arguments{},
        /*workGroupSize=*/0, {mapped.stateHandle()}, typeName<Tout>(),
        sizeof(Tout), /*outCount=*/1);
    Vector<Tout> holder;
    detail::evaluateNodeInto(reduce, holder.stateHandle());
    return Scalar<Tout>(std::move(holder));
  }

private:
  std::shared_ptr<const detail::UserFunction> map_;
  std::shared_ptr<const detail::UserFunction> reduce_;
  Tout identity_{};
};

} // namespace skelcl
