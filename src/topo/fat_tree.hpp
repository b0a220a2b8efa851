#pragma once
// k-ary fat-tree builder [Al-Fares et al., SIGCOMM'08].
//
// The paper evaluates on fat-tree because it upper-bounds Clos performance
// (Section 3.1). A k-ary fat-tree has k pods, each with k/2 edge and k/2
// aggregation switches; (k/2)^2 core switches; k/2 servers per edge switch
// (k^3/4 total). All switches have k ports.
//
// Identifier layout (relied on by flat-tree conversion and by the locality
// workload placements):
//   * switches: pod 0 edges E0..E_{k/2-1}, pod 0 aggs A0..A_{k/2-1},
//     pod 1 ..., then cores C0..C_{(k/2)^2-1};
//   * servers: consecutive within an edge switch, edge switches consecutive
//     within a pod, pods consecutive — so consecutive server ids are
//     physically adjacent.
//   * core wiring: aggregation switch Ai of every pod connects to the h=k/2
//     cores C_{i*h} .. C_{i*h+h-1} (the paper's Figure 4a pattern).

#include <cstdint>

#include "topo/topology.hpp"

namespace flattree::topo {

/// Parameters of a (generalized) Clos pod, in the paper's Section 2.2
/// notation. Defaults derive everything from the fat-tree parameter k
/// (d = k/2, r = 1, h = k/2, servers_per_edge = k/2, pods = k, uniform
/// k-port switches); `make_generic` overrides the layout — including
/// *oversubscribed* designs (more servers per edge switch than uplinks),
/// the case the paper says flat-tree especially targets. Per-layer port
/// budgets may then differ (bigger edge switches, small cores).
struct ClosParams {
  std::uint32_t k = 4;  ///< fat-tree parameter (switch port count), even, >= 4

  std::uint32_t pods() const { return generic_ ? pods_ : k; }
  std::uint32_t d() const { return generic_ ? d_ : k / 2; }  ///< edge switches per pod
  std::uint32_t r() const { return generic_ ? r_ : 1; }      ///< edges per aggregation
  std::uint32_t aggs_per_pod() const { return d() / r(); }
  std::uint32_t h() const { return generic_ ? h_ : k / 2; }  ///< uplinks per aggregation
  std::uint32_t servers_per_edge() const { return generic_ ? spe_ : k / 2; }
  /// Core switches: one group of h/r per edge index (paper Section 2.3).
  std::uint32_t cores() const { return d() * (h() / r()); }
  std::uint32_t servers_per_pod() const { return d() * servers_per_edge(); }
  std::uint32_t total_servers() const { return pods() * servers_per_pod(); }
  std::uint32_t total_switches() const { return pods() * (d() + aggs_per_pod()) + cores(); }

  // Per-layer port budgets (uniform k for the fat-tree case).
  std::uint32_t edge_ports() const { return generic_ ? edge_ports_ : k; }
  std::uint32_t agg_ports() const { return generic_ ? agg_ports_ : k; }
  std::uint32_t core_ports() const { return generic_ ? core_ports_ : k; }

  bool is_generic() const { return generic_; }
  /// Edge oversubscription ratio: server capacity over uplink capacity.
  double oversubscription() const {
    return static_cast<double>(servers_per_edge()) /
           (static_cast<double>(h()) / static_cast<double>(r()));
  }

  /// Builds a generic (possibly oversubscribed) Clos layout. Validates:
  /// r | d, r | h, h/r >= 1, edge ports >= servers_per_edge + d/r,
  /// aggregation ports >= d + h, core ports >= pods, pods >= 2.
  /// Throws std::invalid_argument on violations.
  static ClosParams make_generic(std::uint32_t pods, std::uint32_t d, std::uint32_t r,
                                 std::uint32_t h, std::uint32_t servers_per_edge,
                                 std::uint32_t edge_ports, std::uint32_t agg_ports,
                                 std::uint32_t core_ports);

  /// Fat-tree layout for parameter k (equivalent to `{.k = k}`).
  static ClosParams fat_tree(std::uint32_t k);

 private:
  bool generic_ = false;
  std::uint32_t pods_ = 0, d_ = 0, r_ = 1, h_ = 0, spe_ = 0;
  std::uint32_t edge_ports_ = 0, agg_ports_ = 0, core_ports_ = 0;
};

/// A built Clos network (fat-tree or generic) with id-mapping helpers.
struct FatTree {
  ClosParams params;
  Topology topo;

  NodeId edge_switch(std::uint32_t pod, std::uint32_t j) const;
  NodeId agg_switch(std::uint32_t pod, std::uint32_t i) const;
  NodeId core_switch(std::uint32_t c) const;
};

/// Builds the k-ary fat-tree. Throws std::invalid_argument unless k is even
/// and >= 4.
FatTree build_fat_tree(std::uint32_t k);

/// Builds any (possibly oversubscribed) Clos network described by `params`
/// with the same id layout and the paper's Figure 4a pod-core wiring
/// (aggregation A_i of every pod to cores [i*h, (i+1)*h)).
FatTree build_clos(const ClosParams& params);

}  // namespace flattree::topo
