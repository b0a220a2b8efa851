#pragma once
// Data center topology model shared by all architectures.
//
// A Topology is a switch-level multigraph plus server attachments. Servers
// are not graph nodes: the paper's metrics (path length, max concurrent
// flow with relaxed server links) operate at switch level, with servers
// entering as per-switch weights / demand endpoints. Each switch carries a
// port budget; links and attached servers consume ports, and validate()
// checks the budget — the key physical-feasibility invariant for converted
// topologies.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace flattree::topo {

using graph::LinkId;
using graph::NodeId;
using ServerId = std::uint32_t;

/// Role a switch was manufactured for. Conversions never change the kind —
/// a converted random graph still reports its Clos equipment inventory.
enum class SwitchKind : std::uint8_t { Core, Aggregation, Edge };

/// How a link came to exist; used by wiring property tests and reports.
enum class LinkOrigin : std::uint8_t {
  ClosEdgeAgg,   ///< intra-pod edge-aggregation link (never rewired)
  PodCore,       ///< pod-to-core link (agg-core, edge-core, or core-server side)
  ConverterLocal,///< intra-pod link created by a converter configuration
  InterPodSide,  ///< side link between 6-port converters in adjacent pods
  Random,        ///< link of a random-graph baseline
};

const char* to_string(SwitchKind kind);
const char* to_string(LinkOrigin origin);

struct SwitchInfo {
  SwitchKind kind = SwitchKind::Edge;
  std::int32_t pod = -1;      ///< -1 for core switches
  std::uint32_t index = 0;    ///< index within (kind, pod)
  std::uint32_t ports = 0;    ///< physical port budget
};

struct LinkInfo {
  LinkOrigin origin = LinkOrigin::Random;
};

class Topology {
 public:
  // -- construction -------------------------------------------------------
  NodeId add_switch(SwitchKind kind, std::int32_t pod, std::uint32_t index,
                    std::uint32_t ports);
  LinkId add_link(NodeId a, NodeId b, LinkOrigin origin, double capacity = 1.0);
  ServerId add_server(NodeId host);

  // -- topology views ------------------------------------------------------
  const graph::Graph& graph() const { return graph_; }
  std::size_t switch_count() const { return graph_.node_count(); }
  std::size_t link_count() const { return graph_.link_count(); }
  std::size_t server_count() const { return server_host_.size(); }

  const SwitchInfo& info(NodeId node) const { return switch_info_.at(node); }
  const LinkInfo& link_info(LinkId link) const { return link_info_.at(link); }
  NodeId host(ServerId server) const { return server_host_.at(server); }

  /// Servers attached to each switch (the APL weight vector).
  std::vector<std::uint32_t> servers_per_switch() const;

  /// Count of switches per kind: [core, aggregation, edge].
  std::array<std::size_t, 3> kind_counts() const;

  // -- invariants ----------------------------------------------------------
  /// Throws std::runtime_error (with a description) if any switch exceeds
  /// its port budget or the switch graph is disconnected.
  void validate() const;

  /// Human-readable one-line inventory, e.g. for example programs.
  std::string summary() const;

 private:
  graph::Graph graph_;
  std::vector<SwitchInfo> switch_info_;
  std::vector<LinkInfo> link_info_;
  std::vector<NodeId> server_host_;
};

}  // namespace flattree::topo
