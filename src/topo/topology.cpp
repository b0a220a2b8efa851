#include "topo/topology.hpp"

#include <array>
#include <sstream>
#include <stdexcept>

#include "graph/bfs.hpp"

namespace flattree::topo {

const char* to_string(SwitchKind kind) {
  switch (kind) {
    case SwitchKind::Core: return "core";
    case SwitchKind::Aggregation: return "aggregation";
    case SwitchKind::Edge: return "edge";
  }
  return "?";
}

const char* to_string(LinkOrigin origin) {
  switch (origin) {
    case LinkOrigin::ClosEdgeAgg: return "clos-edge-agg";
    case LinkOrigin::PodCore: return "pod-core";
    case LinkOrigin::ConverterLocal: return "converter-local";
    case LinkOrigin::InterPodSide: return "inter-pod-side";
    case LinkOrigin::Random: return "random";
  }
  return "?";
}

NodeId Topology::add_switch(SwitchKind kind, std::int32_t pod, std::uint32_t index,
                            std::uint32_t ports) {
  NodeId id = graph_.add_nodes(1);
  switch_info_.push_back(SwitchInfo{kind, pod, index, ports});
  return id;
}

LinkId Topology::add_link(NodeId a, NodeId b, LinkOrigin origin, double capacity) {
  LinkId id = graph_.add_link(a, b, capacity);
  link_info_.push_back(LinkInfo{origin});
  return id;
}

ServerId Topology::add_server(NodeId host) {
  if (host >= graph_.node_count())
    throw std::out_of_range("Topology::add_server: host out of range");
  server_host_.push_back(host);
  return static_cast<ServerId>(server_host_.size() - 1);
}

std::vector<std::uint32_t> Topology::servers_per_switch() const {
  std::vector<std::uint32_t> count(graph_.node_count(), 0);
  for (NodeId host : server_host_) ++count[host];
  return count;
}

std::array<std::size_t, 3> Topology::kind_counts() const {
  std::array<std::size_t, 3> counts{0, 0, 0};
  for (const auto& info : switch_info_) counts[static_cast<std::size_t>(info.kind)]++;
  return counts;
}

void Topology::validate() const {
  std::vector<std::size_t> used(graph_.node_count(), 0);
  for (const auto& link : graph_.links()) {
    ++used[link.a];
    ++used[link.b];
  }
  for (NodeId host : server_host_) ++used[host];
  for (NodeId n = 0; n < graph_.node_count(); ++n) {
    if (used[n] > switch_info_[n].ports) {
      std::ostringstream os;
      os << "Topology::validate: switch " << n << " (" << to_string(switch_info_[n].kind)
         << ", pod " << switch_info_[n].pod << ", index " << switch_info_[n].index
         << ") uses " << used[n] << " ports but has only " << switch_info_[n].ports;
      throw std::runtime_error(os.str());
    }
  }
  if (!graph::is_connected(graph_))
    throw std::runtime_error("Topology::validate: switch graph is disconnected");
}

std::string Topology::summary() const {
  auto counts = kind_counts();
  std::ostringstream os;
  os << switch_count() << " switches (" << counts[0] << " core, " << counts[1]
     << " aggregation, " << counts[2] << " edge), " << link_count() << " links, "
     << server_count() << " servers";
  return os.str();
}

}  // namespace flattree::topo
