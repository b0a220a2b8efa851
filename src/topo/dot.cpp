#include "topo/dot.hpp"

#include <map>
#include <sstream>

namespace flattree::topo {

namespace {

const char* kind_color(SwitchKind kind) {
  switch (kind) {
    case SwitchKind::Core: return "lightcoral";
    case SwitchKind::Aggregation: return "lightblue";
    case SwitchKind::Edge: return "lightgreen";
  }
  return "white";
}

const char* origin_style(LinkOrigin origin) {
  switch (origin) {
    case LinkOrigin::ClosEdgeAgg: return "solid";
    case LinkOrigin::PodCore: return "solid";
    case LinkOrigin::ConverterLocal: return "dashed";
    case LinkOrigin::InterPodSide: return "bold";
    case LinkOrigin::Random: return "dotted";
  }
  return "solid";
}

std::string node_name(const Topology& topo, NodeId v) {
  const SwitchInfo& info = topo.info(v);
  std::ostringstream os;
  switch (info.kind) {
    case SwitchKind::Core: os << "C" << info.index; break;
    case SwitchKind::Aggregation: os << "A" << info.pod << "_" << info.index; break;
    case SwitchKind::Edge: os << "E" << info.pod << "_" << info.index; break;
  }
  return os.str();
}

}  // namespace

std::string to_dot(const Topology& topo, const DotOptions& options) {
  std::ostringstream os;
  os << "graph flattree {\n  node [shape=box, style=filled];\n";

  // Group switches by pod: each pod renders as a DOT subgraph cluster.
  std::map<std::int32_t, std::vector<NodeId>> pods;
  for (NodeId v = 0; v < topo.switch_count(); ++v) pods[topo.info(v).pod].push_back(v);

  auto emit_switch = [&](NodeId v, const std::string& indent) {
    os << indent << node_name(topo, v) << " [fillcolor=" << kind_color(topo.info(v).kind)
       << "];\n";
  };

  for (const auto& [pod, nodes] : pods) {
    if (pod >= 0) {
      os << "  subgraph cluster_pod" << pod << " {\n    label=\"pod " << pod << "\";\n";
      for (NodeId v : nodes) emit_switch(v, "    ");
      os << "  }\n";
    } else {
      for (NodeId v : nodes) emit_switch(v, "  ");
    }
  }

  if (options.include_servers) {
    os << "  node [shape=circle, fillcolor=white, width=0.2, label=\"\"];\n";
    for (ServerId s = 0; s < topo.server_count(); ++s) {
      os << "  s" << s << ";\n";
      os << "  s" << s << " -- " << node_name(topo, topo.host(s)) << " [style=dotted];\n";
    }
  }

  for (graph::LinkId l = 0; l < topo.link_count(); ++l) {
    const graph::Link& link = topo.graph().link(l);
    os << "  " << node_name(topo, link.a) << " -- " << node_name(topo, link.b)
       << " [style=" << origin_style(topo.link_info(l).origin) << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace flattree::topo
