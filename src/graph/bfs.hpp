#pragma once
// Unweighted shortest paths (BFS) and reachability.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace flattree::graph {

/// Hop distance marker for unreachable nodes.
inline constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};

/// Single-source hop distances. O(V + E).
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);

/// True when every node is reachable from node 0 (or the graph is empty).
bool is_connected(const Graph& g);

/// Number of connected components.
std::size_t component_count(const Graph& g);

}  // namespace flattree::graph
