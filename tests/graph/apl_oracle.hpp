#pragma once
// Test oracle for the weighted APL: the original one-BFS-per-source
// kernel. Each weighted source runs a scalar bfs_distances and its pairs
// are folded in long double, sources in ascending order, targets v > u
// ascending — the reference the batched counting path must match bit for
// bit.
// oracle_bfs_settled() counts the (source, node) pairs those scalar BFS
// calls reached, the baseline the batched engine's graph.bfs.nodes_visited
// counter is compared to.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/metrics.hpp"

namespace flattree::graph::oracle {

/// (source, node) pairs reached by the oracle's scalar BFS calls since the
/// last reset_oracle_bfs_settled().
inline std::uint64_t& oracle_bfs_settled() {
  static std::uint64_t settled = 0;
  return settled;
}

/// Zeroes oracle_bfs_settled().
inline void reset_oracle_bfs_settled() { oracle_bfs_settled() = 0; }

/// Scalar reference for graph::weighted_apl; throws std::runtime_error on
/// a disconnected weighted pair.
inline AplResult weighted_apl_scalar(const Graph& g, const std::vector<std::uint32_t>& weight,
                                     std::uint32_t offset, std::uint32_t same_node_dist) {
  long double total = 0.0L;
  AplResult r;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const std::uint64_t wu = weight[u];
    if (wu == 0) continue;
    const std::vector<std::uint32_t> dist = bfs_distances(g, u);
    oracle_bfs_settled() += static_cast<std::uint64_t>(
        std::count_if(dist.begin(), dist.end(), [](std::uint32_t d) { return d != kUnreachable; }));
    if (wu >= 2) {
      const std::uint64_t p = wu * (wu - 1) / 2;
      total += static_cast<long double>(p) * same_node_dist;
      r.pairs += p;
      r.max_dist = std::max(r.max_dist, same_node_dist);
    }
    for (NodeId v = u + 1; v < g.node_count(); ++v) {
      if (weight[v] == 0) continue;
      if (dist[v] == kUnreachable)
        throw std::runtime_error("weighted_apl: weighted pair disconnected");
      const std::uint64_t p = wu * weight[v];
      const std::uint32_t d = dist[v] + offset;
      total += static_cast<long double>(p) * d;
      r.pairs += p;
      r.max_dist = std::max(r.max_dist, d);
    }
  }
  r.average = r.pairs ? static_cast<double>(total / static_cast<long double>(r.pairs)) : 0.0;
  return r;
}

}  // namespace flattree::graph::oracle
