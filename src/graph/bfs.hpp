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

/// Single-source distances restricted to nodes for which `allowed[v]` is
/// true (the source must be allowed). Used for intra-pod path lengths.
std::vector<std::uint32_t> bfs_distances_filtered(const Graph& g, NodeId source,
                                                  const std::vector<char>& allowed);

/// All-pairs hop distances via the bit-parallel batched engine
/// (graph::MultiSourceBfs): sources run 64 per word, batches fanned out
/// over the exec pool. Row u equals bfs_distances(g, u) bit for bit; the
/// result is identical at any thread count. O(V^2) memory.
std::vector<std::vector<std::uint32_t>> apsp_distances(const Graph& g);

/// True when every node is reachable from node 0 (or the graph is empty).
bool is_connected(const Graph& g);

/// Number of connected components.
std::size_t component_count(const Graph& g);

}  // namespace flattree::graph
