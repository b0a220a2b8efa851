#include "topo/dot.hpp"

#include <gtest/gtest.h>

#include "core/flat_tree.hpp"
#include "topo/fat_tree.hpp"

namespace flattree::topo {
namespace {

TEST(Dot, ContainsAllSwitchesAndLinks) {
  FatTree ft = build_fat_tree(4);
  std::string dot = to_dot(ft.topo);
  EXPECT_NE(dot.find("graph flattree {"), std::string::npos);
  // Every edge/agg/core switch named once as a node declaration.
  EXPECT_NE(dot.find("E0_0"), std::string::npos);
  EXPECT_NE(dot.find("A3_1"), std::string::npos);
  EXPECT_NE(dot.find("C3"), std::string::npos);
  // Link count: number of " -- " occurrences equals links (no servers).
  std::size_t count = 0;
  for (std::size_t pos = dot.find(" -- "); pos != std::string::npos;
       pos = dot.find(" -- ", pos + 1))
    ++count;
  EXPECT_EQ(count, ft.topo.link_count());
}

TEST(Dot, PodClustersEmitted) {
  FatTree ft = build_fat_tree(4);
  std::string dot = to_dot(ft.topo);
  EXPECT_NE(dot.find("subgraph cluster_pod0"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_pod3"), std::string::npos);
}

TEST(Dot, ServersOptIn) {
  FatTree ft = build_fat_tree(4);
  EXPECT_EQ(to_dot(ft.topo).find("s0"), std::string::npos);
  DotOptions with_servers;
  with_servers.include_servers = true;
  std::string dot = to_dot(ft.topo, with_servers);
  EXPECT_NE(dot.find("s0 -- "), std::string::npos);
  EXPECT_NE(dot.find("s15 -- "), std::string::npos);
}

TEST(Dot, SideLinksRenderedBold) {
  core::FlatTreeConfig cfg;
  cfg.k = 8;
  core::FlatTreeNetwork net(cfg);
  std::string dot = to_dot(net.build(core::Mode::GlobalRandom));
  EXPECT_NE(dot.find("[style=bold]"), std::string::npos);    // inter-pod side
  EXPECT_NE(dot.find("[style=dashed]"), std::string::npos);  // converter-local
}

TEST(Dot, ClosedAndParseableShape) {
  FatTree ft = build_fat_tree(4);
  std::string dot = to_dot(ft.topo);
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.rfind("}\n"), std::string::npos);
  // Balanced braces.
  long depth = 0;
  for (char ch : dot) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace flattree::topo
