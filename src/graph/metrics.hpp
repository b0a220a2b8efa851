#pragma once
// Graph-level metric: weighted average path length.
//
// The paper's Figures 5 and 6 are average path lengths over *server pairs*.
// Servers attach to switches, so the server-pair APL is a switch-pair APL
// weighted by the product of server counts, plus the two server-switch
// attachment links. The weighted engine here takes a per-node weight vector
// (servers per switch) and an additive hop offset (2 for the attachment
// links).
//
// Engine: sources run through the bit-parallel batched BFS
// (graph::MultiSourceBfs, 64 sources per word) in its counting mode, which
// writes no distance rows. Every term of an APL total is an integer
// (weight product times hop count), so the totals are folded in uint64:
// exact, and therefore the same bits in any batch order at any thread
// count. require_apl_sum_fits checks up front that the total cannot pass
// 2^64. The average is then (long double)total / (long double)pairs, the
// same expression a per-pair long-double fold reduces to while its partial
// sums stay below 2^64 (a 64-bit mantissa holds them exactly), so the
// results are bitwise-identical to the one-BFS-per-source reference the
// tests keep (tests/graph/apl_oracle.hpp).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace flattree::graph {

/// Result of a weighted average-path-length computation.
struct AplResult {
  double average = 0.0;       ///< weighted mean distance (hops)
  std::uint64_t pairs = 0;    ///< number of weighted pairs (unordered)
  std::uint32_t max_dist = 0; ///< max distance seen among weighted pairs
};

/// Average over unordered pairs (u,v), u != v or same-node pairs among
/// distinct endpoints: sum over node pairs of w[u]*w[v] pairs at distance
/// d(u,v) + offset, plus w[u]*(w[u]-1)/2 same-node pairs at distance
/// `same_node_dist`. Throws std::runtime_error if any weighted pair is
/// disconnected, and std::overflow_error as require_apl_sum_fits does.
AplResult weighted_apl(const Graph& g, const std::vector<std::uint32_t>& weight,
                       std::uint32_t offset, std::uint32_t same_node_dist);

/// Throws std::overflow_error unless (sum of weight)^2 * max(n - 1 + offset,
/// same_node_dist) < 2^64, n = weight.size(): the bound under which every
/// integer hop total of an APL over `weight` (ordered pairs included) is
/// exact. weighted_apl calls it before any traversal.
void require_apl_sum_fits(const std::vector<std::uint32_t>& weight, std::uint32_t offset,
                          std::uint32_t same_node_dist);

}  // namespace flattree::graph
