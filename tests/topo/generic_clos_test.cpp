#include <gtest/gtest.h>

#include "graph/adjacent.hpp"
#include "graph/bfs.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "topo/topo_helpers.hpp"

namespace flattree::topo {
namespace {

/// 3:1 oversubscribed layout: 6 pods, 4 edges/pod, r = 2 (2 aggregations),
/// h = 4 uplinks, 6 servers per edge vs 2 effective uplinks per edge.
ClosParams oversubscribed() {
  return ClosParams::make_generic(/*pods=*/6, /*d=*/4, /*r=*/2, /*h=*/4,
                                  /*servers_per_edge=*/6, /*edge_ports=*/8,
                                  /*agg_ports=*/8, /*core_ports=*/6);
}

TEST(GenericClos, FatTreeFactoryMatchesDefault) {
  ClosParams a = ClosParams::fat_tree(8);
  ClosParams b;
  b.k = 8;
  EXPECT_EQ(a.pods(), b.pods());
  EXPECT_EQ(a.d(), b.d());
  EXPECT_EQ(a.cores(), b.cores());
  EXPECT_EQ(a.edge_ports(), 8u);
  EXPECT_FALSE(a.is_generic());
  EXPECT_DOUBLE_EQ(a.oversubscription(), 1.0);
}

TEST(GenericClos, DerivedQuantities) {
  ClosParams p = oversubscribed();
  EXPECT_TRUE(p.is_generic());
  EXPECT_EQ(p.pods(), 6u);
  EXPECT_EQ(p.d(), 4u);
  EXPECT_EQ(p.aggs_per_pod(), 2u);
  EXPECT_EQ(p.h(), 4u);
  EXPECT_EQ(p.cores(), 8u);  // d * h/r = 4 * 2
  EXPECT_EQ(p.servers_per_pod(), 24u);
  EXPECT_EQ(p.total_servers(), 144u);
  EXPECT_DOUBLE_EQ(p.oversubscription(), 3.0);
}

TEST(GenericClos, ValidationRejectsBadLayouts) {
  EXPECT_THROW(ClosParams::make_generic(1, 4, 2, 4, 6, 8, 8, 6), std::invalid_argument);
  EXPECT_THROW(ClosParams::make_generic(6, 5, 2, 4, 6, 8, 9, 6), std::invalid_argument);
  EXPECT_THROW(ClosParams::make_generic(6, 4, 2, 3, 6, 8, 7, 6), std::invalid_argument);
  // Edge ports too small (needs servers + d/r = 6 + 2 = 8).
  EXPECT_THROW(ClosParams::make_generic(6, 4, 2, 4, 6, 7, 8, 6), std::invalid_argument);
  // Aggregation ports too small (needs d + h = 8).
  EXPECT_THROW(ClosParams::make_generic(6, 4, 2, 4, 6, 8, 7, 6), std::invalid_argument);
  // Core ports below pod count.
  EXPECT_THROW(ClosParams::make_generic(6, 4, 2, 4, 6, 8, 8, 5), std::invalid_argument);
  EXPECT_THROW(ClosParams::make_generic(6, 4, 0, 4, 6, 8, 8, 6), std::invalid_argument);
}

TEST(BuildClos, OversubscribedCountsAndValidation) {
  FatTree net = build_clos(oversubscribed());
  auto counts = net.topo.kind_counts();
  EXPECT_EQ(counts[0], 8u);   // cores
  EXPECT_EQ(counts[1], 12u);  // aggregations: 6 pods x 2
  EXPECT_EQ(counts[2], 24u);  // edges: 6 pods x 4
  EXPECT_EQ(net.topo.server_count(), 144u);
  // Links: per pod 4*2 mesh + 2*4 uplinks = 16; x6 pods = 96.
  EXPECT_EQ(net.topo.link_count(), 96u);
  EXPECT_NO_THROW(net.topo.validate());
}

TEST(BuildClos, PerLayerPortBudgets) {
  FatTree net = build_clos(oversubscribed());
  for (NodeId v = 0; v < net.topo.switch_count(); ++v) {
    const SwitchInfo& info = net.topo.info(v);
    switch (info.kind) {
      case SwitchKind::Edge:
        EXPECT_EQ(info.ports, 8u);
        EXPECT_EQ(used_ports(net.topo, v), 8u);  // 6 servers + 2 aggs
        break;
      case SwitchKind::Aggregation:
        EXPECT_EQ(info.ports, 8u);
        EXPECT_EQ(used_ports(net.topo, v), 8u);  // 4 edges + 4 cores
        break;
      case SwitchKind::Core:
        EXPECT_EQ(info.ports, 6u);
        EXPECT_EQ(used_ports(net.topo, v), 6u);  // one per pod
        break;
    }
  }
}

TEST(BuildClos, CoreWiringGroupsByAggregation) {
  FatTree net = build_clos(oversubscribed());
  const auto& g = net.topo.graph();
  for (std::uint32_t pod = 0; pod < 6; ++pod) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      for (std::uint32_t c = 0; c < 8; ++c) {
        bool expected = c >= i * 4 && c < (i + 1) * 4;
        EXPECT_EQ(graph::adjacent(g, net.agg_switch(pod, i), net.core_switch(c)), expected);
      }
    }
  }
}

TEST(BuildClos, OversubscriptionShowsInPathCapacityNotLength) {
  // Path lengths match the balanced structure; the penalty is bandwidth.
  FatTree net = build_clos(oversubscribed());
  auto dist = graph::bfs_distances(net.topo.graph(), net.edge_switch(0, 0));
  EXPECT_EQ(dist[net.edge_switch(1, 0)], 4u);  // edge-agg-core-agg-edge
  EXPECT_EQ(dist[net.edge_switch(0, 1)], 2u);
}

TEST(BuildClos, ServerIdLayoutHolds) {
  FatTree net = build_clos(oversubscribed());
  // Six servers per edge, four edges per pod.
  EXPECT_EQ(net.topo.host(0), net.edge_switch(0, 0));
  EXPECT_EQ(net.topo.host(6), net.edge_switch(0, 1));
  EXPECT_EQ(net.topo.host(24), net.edge_switch(1, 0));
  for (std::uint32_t s = 0; s < 6; ++s)
    EXPECT_EQ(net.topo.host(server_at(net, 2, 3, s)), net.edge_switch(2, 3));
}

}  // namespace
}  // namespace flattree::topo
