#include "skelcl/detail/partition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace skelcl::detail {

std::vector<std::size_t> weightedPartition(
    std::size_t n, const std::vector<double>& weights) {
  const std::size_t devices = weights.size();
  COMMON_EXPECTS(devices > 0, "weightedPartition: no devices");

  std::vector<double> w(devices);
  double total = 0.0;
  for (std::size_t d = 0; d < devices; ++d) {
    const double v = weights[d];
    COMMON_EXPECTS(std::isfinite(v) && v >= 0.0,
                   "weightedPartition: weights must be finite and >= 0");
    w[d] = v;
    total += v;
  }
  if (total <= 0.0) {
    // All-zero weights carry no information; fall back to even.
    std::fill(w.begin(), w.end(), 1.0);
    total = double(devices);
  }

  std::vector<std::size_t> counts(devices, 0);
  std::vector<double> remainder(devices, 0.0);
  std::size_t assigned = 0;
  for (std::size_t d = 0; d < devices; ++d) {
    const double ideal = double(n) * (w[d] / total);
    double floorPart = std::floor(ideal);
    // FP safety: the floor may not exceed what is left to assign.
    floorPart = std::min(floorPart, double(n - assigned));
    counts[d] = std::size_t(floorPart);
    remainder[d] = ideal - floorPart;
    assigned += counts[d];
  }

  // Hand the leftover elements to the largest fractional remainders,
  // lowest device index first on ties — with equal weights every
  // remainder ties, so the first n%D devices get the extra element,
  // exactly the historical even split.
  std::vector<std::size_t> order(devices);
  std::iota(order.begin(), order.end(), std::size_t(0));
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return remainder[a] > remainder[b];
                   });
  for (std::size_t i = 0; assigned < n; i = (i + 1) % devices) {
    ++counts[order[i]];
    ++assigned;
  }
  return counts;
}

std::vector<std::size_t> nodeBlockPartition(
    std::size_t n, const std::vector<double>& weights,
    const std::vector<std::uint32_t>& nodeOf) {
  const std::size_t devices = weights.size();
  COMMON_EXPECTS(devices > 0, "nodeBlockPartition: no devices");
  COMMON_EXPECTS(nodeOf.empty() || nodeOf.size() == devices,
                 "nodeBlockPartition: nodeOf must be empty or parallel to "
                 "weights");

  // Group devices by node, preserving first-appearance order (devices of
  // one node are contiguous in config order, so chunks stay contiguous).
  std::vector<std::uint32_t> nodes;
  std::vector<std::vector<std::size_t>> members;
  for (std::size_t d = 0; d < devices; ++d) {
    const std::uint32_t node = d < nodeOf.size() ? nodeOf[d] : 0;
    if (nodes.empty() || nodes.back() != node) {
      const auto seen = std::find(nodes.begin(), nodes.end(), node);
      COMMON_EXPECTS(seen == nodes.end(),
                     "nodeBlockPartition: a node's devices must be "
                     "contiguous");
      nodes.push_back(node);
      members.emplace_back();
    }
    members.back().push_back(d);
  }
  // Level 1: split n across nodes by summed member weight; level 2:
  // split each node's share across its devices. Both levels use the same
  // largest-remainder method, so a node's share follows the summed peak
  // throughput of its devices. With one node, level 1 hands it all n and
  // level 2 is exactly the flat split.
  std::vector<double> nodeWeights(nodes.size(), 0.0);
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    for (std::size_t d : members[k]) {
      nodeWeights[k] += weights[d];
    }
  }
  const std::vector<std::size_t> nodeShares =
      weightedPartition(n, nodeWeights);

  std::vector<std::size_t> counts(devices, 0);
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    std::vector<double> memberWeights;
    memberWeights.reserve(members[k].size());
    for (std::size_t d : members[k]) {
      memberWeights.push_back(weights[d]);
    }
    const std::vector<std::size_t> split =
        weightedPartition(nodeShares[k], memberWeights);
    for (std::size_t i = 0; i < members[k].size(); ++i) {
      counts[members[k][i]] = split[i];
    }
  }
  return counts;
}

} // namespace skelcl::detail
