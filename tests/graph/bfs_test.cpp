#include "graph/bfs.hpp"

#include <gtest/gtest.h>

namespace flattree::graph {
namespace {

Graph path_graph(std::size_t n) {
  Graph g;
  g.add_nodes(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_link(i, i + 1);
  return g;
}

Graph cycle_graph(std::size_t n) {
  Graph g = path_graph(n);
  g.add_link(static_cast<NodeId>(n - 1), 0);
  return g;
}

TEST(Bfs, PathGraphDistances) {
  Graph g = path_graph(5);
  auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, CycleGraphDistances) {
  Graph g = cycle_graph(6);
  auto d = bfs_distances(g, 0);
  std::vector<std::uint32_t> expected{0, 1, 2, 3, 2, 1};
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(d[v], expected[v]);
}

TEST(Bfs, UnreachableMarked) {
  Graph g;
  g.add_nodes(4);
  g.add_link(0, 1);
  g.add_link(2, 3);
  auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(Bfs, SymmetricOnUndirected) {
  Graph g;
  g.add_nodes(5);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  g.add_link(3, 4);
  g.add_link(0, 4);
  for (NodeId u = 0; u < 5; ++u) {
    auto du = bfs_distances(g, u);
    for (NodeId v = 0; v < 5; ++v) {
      auto dv = bfs_distances(g, v);
      EXPECT_EQ(du[v], dv[u]);
    }
  }
}

TEST(Connectivity, ConnectedGraph) {
  EXPECT_TRUE(is_connected(path_graph(10)));
  EXPECT_EQ(component_count(path_graph(10)), 1u);
}

TEST(Connectivity, DisconnectedGraph) {
  Graph g;
  g.add_nodes(5);
  g.add_link(0, 1);
  g.add_link(2, 3);
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(component_count(g), 3u);  // {0,1}, {2,3}, {4}
}

TEST(Connectivity, EmptyAndSingleton) {
  EXPECT_TRUE(is_connected(Graph{}));
  Graph g;
  g.add_nodes(1);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(component_count(g), 1u);
}

}  // namespace
}  // namespace flattree::graph
