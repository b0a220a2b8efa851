#pragma once
// Weighted single-source shortest paths on per-link length functions.
//
// The Garg-Koenemann multicommodity solver re-runs Dijkstra under an
// evolving length function, so lengths are supplied as an external vector
// indexed by LinkId rather than stored on the graph.

#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace flattree::graph {

inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// Shortest-path tree under a per-link length function.
struct DijkstraResult {
  std::vector<double> dist;        ///< kInfDistance when unreachable
  std::vector<NodeId> parent;      ///< kInvalidNode at source/unreached
  std::vector<LinkId> parent_link; ///< kInvalidLink at source/unreached
};

/// Single-source run that stops once `target` is settled (dist/parents
/// for nodes settled after that point are unspecified but dist[target] and
/// the parent chain to it are exact). `length[l]` must be >= 0 for every
/// link.
DijkstraResult dijkstra_to(const Graph& g, NodeId source, NodeId target,
                           const std::vector<double>& length);

/// Reconstructs the node path source..target; empty when unreachable.
std::vector<NodeId> extract_path(const DijkstraResult& r, NodeId target);

/// Reconstructs the link path source..target; empty when unreachable or
/// source == target.
std::vector<LinkId> extract_link_path(const DijkstraResult& r, NodeId target);

}  // namespace flattree::graph
