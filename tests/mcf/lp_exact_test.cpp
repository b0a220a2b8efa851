#include "mcf/lp_exact.hpp"

#include <gtest/gtest.h>

namespace flattree::mcf {
namespace {

TEST(LpExact, SingleLink) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 2.0);
  auto r = max_concurrent_flow_exact(g, {{0, 1, 1.0}});
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.lambda, 2.0, 1e-7);
}

TEST(LpExact, SharedBottleneck) {
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 1.0);
  auto r = max_concurrent_flow_exact(g, {{0, 2, 1.0}, {1, 2, 1.0}});
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.lambda, 0.5, 1e-7);
}

TEST(LpExact, DiamondUsesBothPaths) {
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 3, 1.0);
  g.add_link(0, 2, 1.0);
  g.add_link(2, 3, 1.0);
  auto r = max_concurrent_flow_exact(g, {{0, 3, 1.0}});
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.lambda, 2.0, 1e-7);
}

TEST(LpExact, FullDuplexOpposingFlows) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 1.0);
  auto r = max_concurrent_flow_exact(g, {{0, 1, 1.0}, {1, 0, 1.0}});
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.lambda, 1.0, 1e-7);
}

TEST(LpExact, AsymmetricDemands) {
  // Demands 1 and 3 over a shared unit link: lambda*(1+3) <= 1.
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 1.0);
  auto r = max_concurrent_flow_exact(g, {{0, 2, 1.0}, {0, 2, 3.0}});
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.lambda, 0.25, 1e-7);
}

TEST(LpExact, HeterogeneousCapacities) {
  // 0-1 cap 2 then 1-2 cap 1: bottleneck 1.
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 2.0);
  g.add_link(1, 2, 1.0);
  auto r = max_concurrent_flow_exact(g, {{0, 2, 1.0}});
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.lambda, 1.0, 1e-7);
}

TEST(LpExact, TriangleAllToAll) {
  // Unit triangle, all 6 ordered pairs with unit demand. Node cut: each
  // node emits 2*lambda over out-capacity 2 -> lambda = 1, achieved by
  // direct routing.
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 1.0);
  g.add_link(2, 0, 1.0);
  std::vector<Commodity> cs;
  for (graph::NodeId a = 0; a < 3; ++a)
    for (graph::NodeId b = 0; b < 3; ++b)
      if (a != b) cs.push_back({a, b, 1.0});
  auto r = max_concurrent_flow_exact(g, cs);
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.lambda, 1.0, 1e-6);
}

TEST(LpExact, RejectsOversizedInstance) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1);
  EXPECT_THROW(max_concurrent_flow_exact(g, {{0, 1, 1.0}}, /*max_variables=*/2),
               std::invalid_argument);
}

TEST(LpExact, RejectsDegenerateCommodity) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1);
  EXPECT_THROW(max_concurrent_flow_exact(g, {{0, 0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(max_concurrent_flow_exact(g, {}), std::invalid_argument);
}

}  // namespace
}  // namespace flattree::mcf
