#pragma once
// Test helpers read off a graph's links: whether a link (possibly one of
// several) joins two nodes, and whether any node pair has more than one.

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "graph/graph.hpp"

namespace flattree::graph {

inline bool adjacent(const Graph& g, NodeId a, NodeId b) {
  const auto arcs = g.neighbors(a);
  return std::any_of(arcs.begin(), arcs.end(), [b](const Arc& arc) { return arc.to == b; });
}

inline bool has_parallel_links(const Graph& g) {
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Link& l : g.links())
    if (!seen.insert(std::minmax(l.a, l.b)).second) return true;
  return false;
}

}  // namespace flattree::graph
