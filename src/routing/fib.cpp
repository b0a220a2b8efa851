#include "routing/fib.hpp"

namespace flattree::routing {

std::vector<std::pair<NodeId, NodeId>> all_server_pairs(const topo::Topology& topo) {
  std::vector<NodeId> hosts;
  auto weights = topo.servers_per_switch();
  for (NodeId v = 0; v < topo.switch_count(); ++v)
    if (weights[v] > 0) hosts.push_back(v);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(hosts.size() * (hosts.size() - 1));
  for (NodeId a : hosts)
    for (NodeId b : hosts)
      if (a != b) pairs.emplace_back(a, b);
  return pairs;
}

}  // namespace flattree::routing
