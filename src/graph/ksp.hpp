#pragma once
// Yen's k-shortest loopless paths.
//
// Jellyfish-style topologies route over the k shortest paths between each
// switch pair [Singla et al., NSDI'12]; the routing module consumes this,
// and the packet simulator follows its paths as source routes.

#include <vector>

#include "graph/graph.hpp"

namespace flattree::graph {

/// A simple (loopless) path with its length under the metric used to
/// compute it.
struct Path {
  std::vector<NodeId> nodes;  ///< source..target inclusive
  std::vector<LinkId> links;  ///< one per hop (nodes.size()-1 entries)
  double length = 0.0;        ///< total length under the supplied metric
};

/// Up to `k` shortest loopless paths from source to target, sorted by
/// (length, lexicographic nodes). `length[l]` must be >= 0. Returns fewer
/// than k paths when the graph does not contain that many.
std::vector<Path> yen_ksp(const Graph& g, NodeId source, NodeId target, std::size_t k,
                          const std::vector<double>& length);

/// Convenience: unit link lengths (hop-count shortest paths).
std::vector<Path> yen_ksp_hops(const Graph& g, NodeId source, NodeId target, std::size_t k);

/// All distinct shortest (minimum-hop) paths between source and target,
/// capped at `max_paths`. This enumerates ECMP path sets on Clos fabrics.
std::vector<Path> all_shortest_paths(const Graph& g, NodeId source, NodeId target,
                                     std::size_t max_paths);

}  // namespace flattree::graph
