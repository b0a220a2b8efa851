#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include "apl_oracle.hpp"

namespace flattree::graph {
namespace {

Graph path_graph(std::size_t n) {
  Graph g;
  g.add_nodes(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_link(i, i + 1);
  return g;
}

TEST(WeightedApl, TwoNodesOneServerEach) {
  Graph g = path_graph(2);
  std::vector<std::uint32_t> w{1, 1};
  auto r = weighted_apl(g, w, 2, 2);
  EXPECT_EQ(r.pairs, 1u);
  EXPECT_DOUBLE_EQ(r.average, 3.0);  // 1 hop + offset 2
  EXPECT_EQ(r.max_dist, 3u);
}

TEST(WeightedApl, SameNodePairsUseSameNodeDist) {
  Graph g;
  g.add_nodes(1);
  std::vector<std::uint32_t> w{3};
  auto r = weighted_apl(g, w, 2, 2);
  EXPECT_EQ(r.pairs, 3u);  // C(3,2)
  EXPECT_DOUBLE_EQ(r.average, 2.0);
}

TEST(WeightedApl, MixedWeightsExactAverage) {
  // Path 0-1-2, weights 2,0,1: pairs: C(2,2)=1 same-node at 2,
  // 2*1 cross pairs at dist 2+2=4 -> avg = (1*2 + 2*4)/3.
  Graph g = path_graph(3);
  std::vector<std::uint32_t> w{2, 0, 1};
  auto r = weighted_apl(g, w, 2, 2);
  EXPECT_EQ(r.pairs, 3u);
  EXPECT_DOUBLE_EQ(r.average, 10.0 / 3.0);
  EXPECT_EQ(r.max_dist, 4u);
}

TEST(WeightedApl, ZeroOffsetIsSwitchLevel) {
  Graph g = path_graph(4);
  std::vector<std::uint32_t> w{1, 0, 0, 1};
  auto r = weighted_apl(g, w, 0, 0);
  EXPECT_DOUBLE_EQ(r.average, 3.0);
}

TEST(WeightedApl, DisconnectedWeightedPairThrows) {
  Graph g;
  g.add_nodes(2);
  std::vector<std::uint32_t> w{1, 1};
  EXPECT_THROW(weighted_apl(g, w, 2, 2), std::runtime_error);
}

TEST(WeightedApl, DisconnectedUnweightedNodeIgnored) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  std::vector<std::uint32_t> w{1, 1, 0};  // node 2 isolated but weightless
  auto r = weighted_apl(g, w, 2, 2);
  EXPECT_EQ(r.pairs, 1u);
}

TEST(WeightedApl, SizeMismatchThrows) {
  Graph g = path_graph(2);
  std::vector<std::uint32_t> w{1};
  EXPECT_THROW(weighted_apl(g, w, 2, 2), std::invalid_argument);
}

// The unreachable-pair policy on a 2-component graph: any disconnected
// weighted pair is a broken topology and throws.
TEST(WeightedApl, ThrowsOnTwoComponents) {
  Graph g;
  g.add_nodes(5);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(3, 4);
  std::vector<std::uint32_t> w(5, 1);
  EXPECT_THROW(weighted_apl(g, w, 0, 0), std::runtime_error);
  EXPECT_THROW(oracle::weighted_apl_scalar(g, w, 0, 0), std::runtime_error);
  // Zero-weighting one component makes every weighted pair connected
  // again: the policy is about *weighted* pairs, not global connectivity.
  std::vector<std::uint32_t> one_side{1, 1, 1, 0, 0};
  EXPECT_EQ(weighted_apl(g, one_side, 0, 0).pairs, 3u);
}

}  // namespace
}  // namespace flattree::graph
