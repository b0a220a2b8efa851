#include "routing/ksp_routing.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/flat_tree.hpp"

namespace flattree::routing {
namespace {

graph::Graph ring(std::size_t n) {
  graph::Graph g;
  g.add_nodes(n);
  for (graph::NodeId i = 0; i < n; ++i)
    g.add_link(i, static_cast<graph::NodeId>((i + 1) % n));
  return g;
}

TEST(KspRouting, ReturnsUpToKPaths) {
  graph::Graph g = ring(6);
  KspRouting routing(g, 4);
  // A ring has exactly 2 loopless paths between any pair.
  EXPECT_EQ(routing.paths(0, 3).size(), 2u);
}

TEST(KspRouting, PathsSortedByLength) {
  graph::Graph g = ring(7);
  KspRouting routing(g, 4);
  const auto& paths = routing.paths(0, 2);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_LE(paths[0].length, paths[1].length);
  EXPECT_DOUBLE_EQ(paths[0].length, 2.0);
  EXPECT_DOUBLE_EQ(paths[1].length, 5.0);
}

TEST(KspRouting, SelectionUsesNonShortestPathsToo) {
  // The set a routed flow stripes over holds both ring directions: the
  // 2-hop shortest path and the 4-hop detour.
  graph::Graph g = ring(6);
  KspRouting routing(g, 8);
  std::set<std::size_t> lengths;
  for (const graph::Path& p : routing.paths(0, 2)) lengths.insert(p.links.size());
  EXPECT_EQ(lengths, (std::set<std::size_t>{2, 4}));
}

TEST(KspRouting, DeterministicSelection) {
  graph::Graph g = ring(6);
  KspRouting r1(g, 8), r2(g, 8);
  const auto& a = r1.paths(0, 3);
  const auto& b = r2.paths(0, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].nodes, b[i].nodes);
}

TEST(KspRouting, DisconnectedThrows) {
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  KspRouting routing(g, 4);
  EXPECT_THROW(routing.paths(0, 2), std::runtime_error);
}

TEST(KspRouting, WorksOnConvertedFlatTree) {
  core::FlatTreeConfig cfg;
  cfg.k = 4;
  core::FlatTreeNetwork net(cfg);
  topo::Topology grg = net.build(core::Mode::GlobalRandom);
  KspRouting routing(grg.graph(), 8);
  const auto& paths = routing.paths(0, static_cast<graph::NodeId>(grg.switch_count() - 1));
  EXPECT_GE(paths.size(), 2u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.nodes.front(), 0u);
    EXPECT_EQ(p.nodes.back(), grg.switch_count() - 1);
  }
}

}  // namespace
}  // namespace flattree::routing
