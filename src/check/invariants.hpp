#pragma once
// Topology invariant validators (the "is this network physically
// plausible" battery).
//
// Topology::validate() throws on the two hard invariants (port budget,
// connectivity); these validators cover the wider battery in report form:
// self links, non-positive capacities, servers homed on dead switches,
// connectivity with declared isolated switches (degraded topologies keep
// failed switches as isolated nodes), and equipment parity between two
// builds that claim the same hardware (fat-tree vs Jellyfish vs two-stage
// vs any flat-tree conversion of the same (k, oversubscription) —
// conversions rewire, they never add ports).

#include <cstdint>
#include <vector>

#include "check/report.hpp"
#include "topo/topology.hpp"

namespace flattree::check {

/// Which topology invariants validate() enforces. Parallel links are
/// always legal (every topology is a multigraph) and the switch graph must
/// always be connected.
struct TopologyCheckOptions {
  /// Degraded topologies keep failed switches as isolated nodes so ids
  /// stay stable; set true to exempt zero-degree switches from the
  /// connectivity requirement (the live subgraph must still be one
  /// component).
  bool allow_isolated_switches = false;
  /// Servers known to be stranded (e.g. DegradedTopology::stranded_servers)
  /// — exempt from the live-host check.
  std::vector<topo::ServerId> declared_stranded;
};

/// Runs the full invariant battery over `t`. Codes: topo.self_link,
/// topo.link_endpoint, topo.capacity, topo.port_budget, topo.server_host,
/// topo.stranded_server, topo.connectivity.
Report validate(const topo::Topology& t, const TopologyCheckOptions& options = {});

/// Checks that two topologies are built from the same equipment: switch
/// count, per-kind switch counts, per-kind port-budget multisets, server
/// count, and (when `require_equal_links`) link count — every port a
/// conversion uses must exist in the donor inventory. Codes:
/// parity.switches, parity.kinds, parity.ports, parity.servers,
/// parity.links.
Report equipment_parity(const topo::Topology& a, const topo::Topology& b,
                        bool require_equal_links = true);

}  // namespace flattree::check
