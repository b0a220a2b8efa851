#pragma once
// Test helpers over the topology API: the ports in use at a switch, and a
// fat-tree server's id from its position.

#include <cstddef>
#include <cstdint>

#include "topo/fat_tree.hpp"
#include "topo/topology.hpp"

namespace flattree::topo {

/// Ports in use at `node`: link endpoints plus attached servers.
inline std::size_t used_ports(const Topology& t, NodeId node) {
  return t.graph().neighbors(node).size() + t.servers_per_switch()[node];
}

/// Server `s` of edge switch j in pod `pod`: build_clos numbers servers
/// slot by slot within an edge switch, edge by edge within a pod, pod by
/// pod.
inline ServerId server_at(const FatTree& ft, std::uint32_t pod, std::uint32_t j,
                          std::uint32_t s) {
  return (pod * ft.params.d() + j) * ft.params.servers_per_edge() + s;
}

}  // namespace flattree::topo
