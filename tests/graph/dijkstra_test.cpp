#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include "graph/bfs.hpp"
#include "util/rng.hpp"

namespace flattree::graph {
namespace {

TEST(Dijkstra, MatchesBfsOnUnitLengths) {
  // Random-ish graph, unit lengths: Dijkstra == BFS.
  Graph g;
  g.add_nodes(12);
  util::Rng rng(5);
  for (int i = 0; i < 25; ++i) {
    NodeId a = static_cast<NodeId>(rng.below(12));
    NodeId b = static_cast<NodeId>(rng.below(12));
    if (a != b) g.add_link(a, b);
  }
  std::vector<double> unit(g.link_count(), 1.0);
  for (NodeId s = 0; s < 12; ++s) {
    auto bd = bfs_distances(g, s);
    for (NodeId v = 0; v < 12; ++v) {
      auto dd = dijkstra_to(g, s, v, unit);
      if (bd[v] == kUnreachable)
        EXPECT_EQ(dd.dist[v], kInfDistance);
      else
        EXPECT_DOUBLE_EQ(dd.dist[v], bd[v]);
    }
  }
}

TEST(Dijkstra, PrefersCheaperLongerPath) {
  // 0 -> 2 direct costs 10; 0 -> 1 -> 2 costs 3.
  Graph g;
  g.add_nodes(3);
  LinkId direct = g.add_link(0, 2);
  g.add_link(0, 1);
  g.add_link(1, 2);
  std::vector<double> len{10.0, 1.0, 2.0};
  auto r = dijkstra_to(g, 0, 2, len);
  EXPECT_DOUBLE_EQ(r.dist[2], 3.0);
  auto path = extract_path(r, 2);
  std::vector<NodeId> expected{0, 1, 2};
  EXPECT_EQ(path, expected);
  (void)direct;
}

TEST(Dijkstra, ZeroLengthLinksAllowed) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  g.add_link(1, 2);
  std::vector<double> len{0.0, 0.0};
  auto r = dijkstra_to(g, 0, 2, len);
  EXPECT_DOUBLE_EQ(r.dist[2], 0.0);
}

TEST(Dijkstra, ParallelLinksPickCheapest) {
  Graph g;
  g.add_nodes(2);
  g.add_link(0, 1);
  g.add_link(0, 1);
  std::vector<double> len{5.0, 2.0};
  auto r = dijkstra_to(g, 0, 1, len);
  EXPECT_DOUBLE_EQ(r.dist[1], 2.0);
  EXPECT_EQ(r.parent_link[1], 1u);
}

TEST(Dijkstra, LengthSizeMismatchThrows) {
  Graph g;
  g.add_nodes(2);
  g.add_link(0, 1);
  std::vector<double> len;
  EXPECT_THROW(dijkstra_to(g, 0, 1, len), std::invalid_argument);
}

TEST(Dijkstra, ExtractLinkPath) {
  Graph g;
  g.add_nodes(4);
  LinkId l0 = g.add_link(0, 1);
  LinkId l1 = g.add_link(1, 2);
  LinkId l2 = g.add_link(2, 3);
  std::vector<double> len{1.0, 1.0, 1.0};
  auto r = dijkstra_to(g, 0, 3, len);
  auto links = extract_link_path(r, 3);
  std::vector<LinkId> expected{l0, l1, l2};
  EXPECT_EQ(links, expected);
}

TEST(Dijkstra, UnreachableTarget) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  std::vector<double> len{1.0};
  auto r = dijkstra_to(g, 0, 2, len);
  EXPECT_EQ(r.dist[2], kInfDistance);
  EXPECT_TRUE(extract_path(r, 2).empty());
  EXPECT_TRUE(extract_link_path(r, 2).empty());
}

TEST(Dijkstra, EarlyExitVariantExactToTarget) {
  Graph g;
  g.add_nodes(6);
  for (NodeId i = 0; i + 1 < 6; ++i) g.add_link(i, i + 1);
  std::vector<double> len(g.link_count(), 1.0);
  auto r = dijkstra_to(g, 0, 3, len);
  EXPECT_DOUBLE_EQ(r.dist[3], 3.0);
  auto p = extract_path(r, 3);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.front(), 0u);
  EXPECT_EQ(p.back(), 3u);
}

}  // namespace
}  // namespace flattree::graph
