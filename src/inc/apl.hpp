#pragma once
// Weighted APL over a DynamicApsp engine's cached distances.
//
// Computes the same metric as graph::weighted_apl / topo::server_apl from
// cached rows: every term is an integer (weight product times hops), so the
// total folds exactly in uint64 (under graph::require_apl_sum_fits) and the
// average is the cold path's (long double)total / (long double)pairs. At
// equal distances the result is therefore *bitwise* equal to the cold
// computation at any thread count and in any fold order — what makes
// `--incremental` byte-identical, not just "close".
//
// Sources the engine has not materialized yet are computed cold
// (sequentially, before the parallel accumulation — the engine is not
// mutation-safe from workers); everything else reads the repaired caches.

#include <cstdint>
#include <vector>

#include "graph/metrics.hpp"
#include "inc/dynamic_bfs.hpp"
#include "topo/topology.hpp"

namespace flattree::inc {

/// graph::weighted_apl against the engine's current graph and caches.
/// Identical contract: throws std::runtime_error when a weighted pair is
/// disconnected, std::invalid_argument on a weight size mismatch.
graph::AplResult weighted_apl(DynamicApsp& engine,
                              const std::vector<std::uint32_t>& weight,
                              std::uint32_t offset, std::uint32_t same_node_dist);

/// topo::server_apl evaluated incrementally. The engine must already be
/// retargeted to `topo` (node counts checked; link drift is the caller's
/// contract — retarget() first).
graph::AplResult server_apl(DynamicApsp& engine, const topo::Topology& topo);

/// topo::server_apl_subset evaluated incrementally (same retarget
/// contract as server_apl).
graph::AplResult server_apl_subset(DynamicApsp& engine, const topo::Topology& topo,
                                   const std::vector<topo::ServerId>& subset);

}  // namespace flattree::inc
