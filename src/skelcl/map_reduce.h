// MapReduce — a composed skeleton (extension beyond the IPDPS 2011 paper;
// later SkelCL work added composed skeletons along these lines).
//
//   mapreduce f (+) [x0 .. xn-1]  =  f(x0) + f(x1) + ... + f(xn-1)
//
// Exactly reduce (+) . map f: a call runs its Map member, then its
// Reduce member on the result, and is lazy like Reduce — nothing
// launches until the Scalar is read. The fusion pass rewrites that chain
// into one skelcl_mapreduce first pass — the map runs inside the
// reduction's accumulation loop, with no intermediate vector and no
// extra launch; with fusion off the chain runs as Map then Reduce.
// tests/skelcl/map_reduce_test.cpp checks the semantics.
#pragma once

#include <string>
#include <utility>

#include "skelcl/map.h"
#include "skelcl/reduce.h"

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
      : map_(std::move(mapSource)),
        reduce_(std::move(reduceSource), identity) {}

  Scalar<Tout> operator()(const Vector<Tin>& input) {
    return reduce_(map_(input));
  }

private:
  Map<Tin, Tout> map_;
  Reduce<Tout> reduce_;
};

} // namespace skelcl
