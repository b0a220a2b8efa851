#include "graph/ksp.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/adjacent.hpp"
#include "util/rng.hpp"

namespace flattree::graph {
namespace {

/// The classic Yen example sanity graph: two disjoint routes plus a detour.
Graph diamond() {
  // 0 -- 1 -- 3
  //  \-- 2 --/
  Graph g;
  g.add_nodes(4);
  g.add_link(0, 1);
  g.add_link(1, 3);
  g.add_link(0, 2);
  g.add_link(2, 3);
  return g;
}

bool loopless(const Path& p) {
  std::set<NodeId> seen(p.nodes.begin(), p.nodes.end());
  return seen.size() == p.nodes.size();
}

bool valid_path(const Graph& g, const Path& p, NodeId src, NodeId dst) {
  if (p.nodes.empty() || p.nodes.front() != src || p.nodes.back() != dst) return false;
  if (p.links.size() + 1 != p.nodes.size()) return false;
  for (std::size_t i = 0; i < p.links.size(); ++i) {
    const Link& l = g.link(p.links[i]);
    NodeId a = p.nodes[i], b = p.nodes[i + 1];
    if (!((l.a == a && l.b == b) || (l.b == a && l.a == b))) return false;
  }
  return true;
}

TEST(YenKsp, FindsBothDiamondPaths) {
  Graph g = diamond();
  auto paths = yen_ksp_hops(g, 0, 3, 4);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(paths[0].length, 2.0);
  EXPECT_DOUBLE_EQ(paths[1].length, 2.0);
  EXPECT_NE(paths[0].nodes, paths[1].nodes);
  for (const Path& p : paths) {
    EXPECT_TRUE(valid_path(g, p, 0, 3));
    EXPECT_TRUE(loopless(p));
  }
}

TEST(YenKsp, LengthsNonDecreasing) {
  Graph g;
  g.add_nodes(6);
  util::Rng rng(3);
  for (int i = 0; i < 14; ++i) {
    NodeId a = static_cast<NodeId>(rng.below(6));
    NodeId b = static_cast<NodeId>(rng.below(6));
    if (a != b && !adjacent(g, a, b)) g.add_link(a, b);
  }
  auto paths = yen_ksp_hops(g, 0, 5, 10);
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_LE(paths[i - 1].length, paths[i].length);
}

TEST(YenKsp, DistinctPaths) {
  Graph g = diamond();
  g.add_link(0, 3);  // direct shortcut
  auto paths = yen_ksp_hops(g, 0, 3, 5);
  ASSERT_EQ(paths.size(), 3u);
  std::set<std::vector<NodeId>> unique;
  for (const Path& p : paths) {
    EXPECT_TRUE(loopless(p));
    unique.insert(p.nodes);
  }
  EXPECT_EQ(unique.size(), paths.size());
  EXPECT_DOUBLE_EQ(paths[0].length, 1.0);
}

TEST(YenKsp, RespectsWeights) {
  // Weighted: long-hop path is cheaper.
  Graph g;
  g.add_nodes(4);
  g.add_link(0, 3);          // weight 10
  g.add_link(0, 1);          // 1
  g.add_link(1, 2);          // 1
  g.add_link(2, 3);          // 1
  std::vector<double> len{10.0, 1.0, 1.0, 1.0};
  auto paths = yen_ksp(g, 0, 3, 2, len);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(paths[0].length, 3.0);
  EXPECT_EQ(paths[0].nodes.size(), 4u);
  EXPECT_DOUBLE_EQ(paths[1].length, 10.0);
}

TEST(YenKsp, DisconnectedGivesEmpty) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  EXPECT_TRUE(yen_ksp_hops(g, 0, 2, 3).empty());
}

TEST(YenKsp, KZeroGivesEmpty) {
  Graph g = diamond();
  EXPECT_TRUE(yen_ksp_hops(g, 0, 3, 0).empty());
}

TEST(YenKsp, SameSourceTargetThrows) {
  Graph g = diamond();
  EXPECT_THROW(yen_ksp_hops(g, 1, 1, 2), std::invalid_argument);
}

TEST(YenKsp, FewerPathsThanRequested) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  g.add_link(1, 2);
  auto paths = yen_ksp_hops(g, 0, 2, 8);
  EXPECT_EQ(paths.size(), 1u);
}

TEST(AllShortestPaths, EnumeratesEcmpSet) {
  Graph g = diamond();
  auto paths = all_shortest_paths(g, 0, 3, 10);
  ASSERT_EQ(paths.size(), 2u);
  for (const Path& p : paths) {
    EXPECT_EQ(p.links.size(), 2u);
    EXPECT_TRUE(valid_path(g, p, 0, 3));
  }
}

TEST(AllShortestPaths, IgnoresLongerPaths) {
  Graph g = diamond();
  g.add_link(0, 3);  // now the only shortest path is direct
  auto paths = all_shortest_paths(g, 0, 3, 10);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].links.size(), 1u);
}

TEST(AllShortestPaths, CapRespected) {
  // Complete bipartite-ish: many equal paths.
  Graph g;
  g.add_nodes(6);
  for (NodeId mid : {1u, 2u, 3u, 4u}) {
    g.add_link(0, mid);
    g.add_link(mid, 5);
  }
  auto all = all_shortest_paths(g, 0, 5, 100);
  EXPECT_EQ(all.size(), 4u);
  auto capped = all_shortest_paths(g, 0, 5, 2);
  EXPECT_EQ(capped.size(), 2u);
}

TEST(AllShortestPaths, DisconnectedGivesEmpty) {
  Graph g;
  g.add_nodes(2);
  EXPECT_TRUE(all_shortest_paths(g, 0, 1, 5).empty());
}

}  // namespace
}  // namespace flattree::graph
