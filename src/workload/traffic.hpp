#pragma once
// Traffic pattern generation: turns clusters into server-level demands
// (paper Section 3.3) ready for aggregation into MCF commodities.

#include <cstdint>
#include <vector>

#include "mcf/commodity.hpp"
#include "workload/cluster.hpp"

namespace flattree::workload {

using mcf::ServerDemand;

/// Broadcast: one random member is the source of a unit demand to every
/// other member.
std::vector<ServerDemand> broadcast_traffic(const Cluster& cluster, util::Rng& rng);

/// Incast: one random member is the destination of a unit demand from
/// every other member.
std::vector<ServerDemand> incast_traffic(const Cluster& cluster, util::Rng& rng);

/// All-to-all: a unit demand between every ordered member pair.
std::vector<ServerDemand> all_to_all_traffic(const Cluster& cluster);

/// Applies `pattern` to every cluster and concatenates the demands.
enum class Pattern : std::uint8_t { Broadcast, Incast, AllToAll };
std::vector<ServerDemand> cluster_traffic(const std::vector<Cluster>& clusters,
                                          Pattern pattern, util::Rng& rng);

/// Random permutation traffic over [0, total): each server sends one unit
/// to a distinct random server (derangement-ish; no self-pairs). Used by
/// the packet simulator benches.
std::vector<ServerDemand> permutation_traffic(std::uint32_t total_servers, util::Rng& rng);

/// Fabric-wide incast over [0, total): `sources` distinct random servers
/// each send one unit to a single random sink (never a self-pair). Pure
/// function of (total_servers, sources, seed) — sink and source choices
/// come from Rng::substream(seed, ...), so the pattern is identical at any
/// thread count or call site. Requires 1 <= sources < total_servers.
/// Used by bench_congestion for the many-to-one congestion workload.
std::vector<ServerDemand> incast_pattern(std::uint32_t total_servers,
                                         std::uint32_t sources, std::uint64_t seed);

}  // namespace flattree::workload
