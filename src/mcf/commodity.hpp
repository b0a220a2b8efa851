#pragma once
// Commodities for the maximum concurrent flow problem.
//
// The paper's throughput metric: maximize lambda such that every commodity
// (src, dst, demand d) ships lambda*d concurrently under unit link
// capacities, with server links relaxed (uncapacitated). Relaxed server
// links mean commodities live at *switch* level: server-pair demands are
// aggregated into switch-pair demands (identical optimum, far smaller
// instance), and pairs on the same switch drop out entirely.

#include <cstdint>
#include <vector>

#include "topo/topology.hpp"

namespace flattree::mcf {

using graph::NodeId;

/// A switch-level demand: ship `demand` units from src to dst.
struct Commodity {
  NodeId src = 0;
  NodeId dst = 0;
  double demand = 1.0;
};

/// A server-level demand (endpoints are ServerIds of a Topology).
struct ServerDemand {
  topo::ServerId src = 0;
  topo::ServerId dst = 0;
  double demand = 1.0;
};

/// Maps server demands onto host switches and merges duplicates.
/// Same-switch pairs are dropped (server links are uncapacitated).
/// Direction matters (full-duplex links): (a,b) and (b,a) stay distinct.
std::vector<Commodity> aggregate_to_switches(const topo::Topology& topo,
                                             const std::vector<ServerDemand>& demands);

/// Commodities sharing a source, for solver source-tree reuse.
struct SourceGroup {
  NodeId src = 0;
  std::vector<std::pair<NodeId, double>> targets;  ///< (dst, demand)
  double total_demand = 0.0;
};

/// Groups commodities by source node, preserving first-appearance order of
/// sources and the input order of targets within each group.
std::vector<SourceGroup> group_by_source(const std::vector<Commodity>& commodities);

}  // namespace flattree::mcf
