#include "routing/ecmp.hpp"

#include <gtest/gtest.h>

#include "topo/fat_tree.hpp"

namespace flattree::routing {
namespace {

graph::Graph diamond() {
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1);
  g.add_link(1, 3);
  g.add_link(0, 2);
  g.add_link(2, 3);
  return g;
}

TEST(Ecmp, PathSetContainsAllShortest) {
  graph::Graph g = diamond();
  EcmpRouting routing(g);
  const auto& paths = routing.paths(0, 3);
  EXPECT_EQ(paths.size(), 2u);
  for (const auto& p : paths) EXPECT_EQ(p.links.size(), 2u);
}

TEST(Ecmp, SelectionDeterministic) {
  // Two independent schemes enumerate the same paths in the same order,
  // so the tables compiled from them hash flows identically.
  graph::Graph g = diamond();
  EcmpRouting r1(g), r2(g);
  const auto& a = r1.paths(0, 3);
  const auto& b = r2.paths(0, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].links, b[i].links);
  }
}

TEST(Ecmp, MaxPathsCapRespected) {
  // 6 parallel 2-hop routes, cap at 3.
  graph::Graph g;
  g.add_nodes(8);
  for (graph::NodeId mid = 1; mid <= 6; ++mid) {
    g.add_link(0, mid);
    g.add_link(mid, 7);
  }
  EcmpRouting routing(g, 3);
  EXPECT_EQ(routing.paths(0, 7).size(), 3u);
}

TEST(Ecmp, DisconnectedThrows) {
  graph::Graph g;
  g.add_nodes(2);
  EcmpRouting routing(g);
  EXPECT_THROW(routing.paths(0, 1), std::runtime_error);
}

TEST(Ecmp, FatTreeEcmpPathCount) {
  // Inter-pod pairs in a k-ary fat-tree have (k/2)^2 shortest paths.
  topo::FatTree ft = topo::build_fat_tree(4);
  EcmpRouting routing(ft.topo.graph(), 64);
  const auto& paths = routing.paths(ft.edge_switch(0, 0), ft.edge_switch(1, 0));
  EXPECT_EQ(paths.size(), 4u);
  for (const auto& p : paths) EXPECT_EQ(p.links.size(), 4u);
  // Intra-pod pairs have k/2 equal-cost paths (one per aggregation switch).
  EXPECT_EQ(routing.paths(ft.edge_switch(0, 0), ft.edge_switch(0, 1)).size(), 2u);
}

TEST(Ecmp, CachesPathSets) {
  graph::Graph g = diamond();
  EcmpRouting routing(g);
  const auto& a = routing.paths(0, 3);
  const auto& b = routing.paths(0, 3);
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace flattree::routing
