#pragma once
// Graphviz DOT export for topologies — visual inspection of conversions
// (render with `dot -Tsvg` or `neato`).

#include <string>

#include "topo/topology.hpp"

namespace flattree::topo {

struct DotOptions {
  bool include_servers = false;  ///< emit server nodes (large at scale)
};

/// Renders the switch-level topology as an undirected DOT graph. Switch
/// nodes are labelled by kind/pod/index and colored by kind, each pod's
/// switches are wrapped in a subgraph cluster, and link styles follow
/// their LinkOrigin.
std::string to_dot(const Topology& topo, const DotOptions& options = {});

}  // namespace flattree::topo
