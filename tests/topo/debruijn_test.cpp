#include "topo/debruijn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/bfs.hpp"

namespace flattree::topo {
namespace {

TEST(DeBruijn, BinaryShapeMatchesTheDefinition) {
  // B(2, 4): 16 switches, degree <= 4, diameter exactly the dimension.
  Topology t = build_debruijn(2, 4, 32, 8);
  EXPECT_EQ(t.switch_count(), 16u);
  EXPECT_EQ(t.server_count(), 32u);
  EXPECT_TRUE(graph::is_connected(t.graph()));
  EXPECT_NO_THROW(t.validate());

  std::uint32_t diameter = 0;
  for (graph::NodeId v = 0; v < t.switch_count(); ++v) {
    EXPECT_LE(t.graph().neighbors(v).size(), 4u) << "switch " << v;
    for (std::uint32_t d : graph::bfs_distances(t.graph(), v))
      diameter = std::max(diameter, d);
  }
  EXPECT_EQ(diameter, 4u);
}

TEST(DeBruijn, ServersRoundRobinAndLinksAreRandomOrigin) {
  Topology t = build_debruijn(2, 3, 20, 8);
  ASSERT_EQ(t.switch_count(), 8u);
  for (ServerId s = 0; s < t.server_count(); ++s)
    EXPECT_EQ(t.host(s), s % 8u) << "server " << s;
  for (graph::LinkId l = 0; l < t.link_count(); ++l)
    EXPECT_EQ(t.link_info(l).origin, LinkOrigin::Random);
}

TEST(DeBruijn, DeterministicWiring) {
  Topology a = build_debruijn(3, 3, 40, 10);
  Topology b = build_debruijn(3, 3, 40, 10);
  ASSERT_EQ(a.link_count(), b.link_count());
  for (graph::LinkId l = 0; l < a.link_count(); ++l) {
    EXPECT_EQ(a.graph().link(l).a, b.graph().link(l).a);
    EXPECT_EQ(a.graph().link(l).b, b.graph().link(l).b);
  }
}

TEST(DeBruijn, RejectsDegenerateParameters) {
  EXPECT_THROW(build_debruijn(1, 3, 8, 8), std::invalid_argument);   // alphabet
  EXPECT_THROW(build_debruijn(2, 0, 8, 8), std::invalid_argument);   // dimension
  EXPECT_THROW(build_debruijn(2, 23, 8, 8), std::invalid_argument);  // 2^23 switches
  // Port budget too small for degree + server load (validate() trips).
  EXPECT_THROW(build_debruijn(2, 3, 800, 4), std::runtime_error);
}

TEST(DeBruijnLikeFatTree, NearEquipmentParityAgainstK) {
  for (std::uint32_t k : {4u, 8u}) {
    Topology t = build_debruijn_like_fat_tree(k);
    // 2^n switches within the fat-tree's 5k^2/4 switch budget.
    EXPECT_LE(t.switch_count(), 5u * k * k / 4);
    EXPECT_GE(2 * t.switch_count(), 5u * k * k / 4);  // largest such power of two
    EXPECT_EQ(t.server_count(), k * k * k / 4);       // same server-id space
    EXPECT_TRUE(graph::is_connected(t.graph()));
    EXPECT_NO_THROW(t.validate());
  }
}

TEST(DeBruijnLikeFatTree, RequiresEvenKAtLeastFour) {
  EXPECT_THROW(build_debruijn_like_fat_tree(2), std::invalid_argument);
  EXPECT_THROW(build_debruijn_like_fat_tree(5), std::invalid_argument);
}

}  // namespace
}  // namespace flattree::topo
