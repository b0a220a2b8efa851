#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include "apl_oracle.hpp"

namespace flattree::graph {
namespace {

Graph path_graph(std::size_t n) {
  Graph g(n);
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
  Graph g(1);
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
  Graph g(2);
  std::vector<std::uint32_t> w{1, 1};
  EXPECT_THROW(weighted_apl(g, w, 2, 2), std::runtime_error);
}

TEST(WeightedApl, DisconnectedUnweightedNodeIgnored) {
  Graph g(3);
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

TEST(WeightedAplSubset, ConfinedPathsAreLonger) {
  // Square 0-1-2-3-0 plus diagonal via node 4: 0-4, 4-2.
  Graph g(5);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  g.add_link(3, 0);
  g.add_link(0, 4);
  g.add_link(4, 2);
  std::vector<std::uint32_t> w{1, 0, 1, 0, 0};
  std::vector<char> member{1, 1, 1, 1, 0};  // exclude the shortcut node
  auto unconfined = weighted_apl_subset(g, w, member, false, 0, 0);
  auto confined = weighted_apl_subset(g, w, member, true, 0, 0);
  EXPECT_DOUBLE_EQ(unconfined.average, 2.0);
  EXPECT_DOUBLE_EQ(confined.average, 2.0);  // square alone still gives 2
  // Remove one square edge: confined must detour, unconfined can shortcut.
  Graph g2(5);
  g2.add_link(0, 1);
  g2.add_link(1, 2);
  g2.add_link(0, 4);
  g2.add_link(4, 2);
  auto conf2 = weighted_apl_subset(g2, w, member, true, 0, 0);
  auto unconf2 = weighted_apl_subset(g2, w, member, false, 0, 0);
  EXPECT_DOUBLE_EQ(conf2.average, 2.0);
  EXPECT_DOUBLE_EQ(unconf2.average, 2.0);
}

TEST(WeightedAplSubset, MemberMaskLimitsPairs) {
  Graph g = path_graph(4);
  std::vector<std::uint32_t> w{1, 1, 1, 1};
  std::vector<char> member{1, 0, 0, 1};
  auto r = weighted_apl_subset(g, w, member, false, 0, 0);
  EXPECT_EQ(r.pairs, 1u);
  EXPECT_DOUBLE_EQ(r.average, 3.0);
}

TEST(UnweightedApl, PathGraphClosedForm) {
  // Path on 3 nodes: distances 1,1,2 -> avg 4/3.
  EXPECT_DOUBLE_EQ(unweighted_apl(path_graph(3)), 4.0 / 3.0);
}

TEST(UnweightedApl, IgnoresDisconnectedPairs) {
  Graph g(3);
  g.add_link(0, 1);
  EXPECT_DOUBLE_EQ(unweighted_apl(g), 1.0);
}

// The unreachable-pair policy on a 2-component graph, both sides: the
// unweighted metric skips disconnected pairs and reports how many it
// skipped; the weighted metric treats any disconnected weighted pair as a
// broken topology and throws.
TEST(UnweightedApl, StatsReportSkippedPairsOnTwoComponents) {
  Graph g(5);  // components {0,1,2} (path) and {3,4}
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(3, 4);
  auto r = unweighted_apl_stats(g);
  // In-component pairs: (0,1),(1,2),(0,2),(3,4) -> distances 1,1,2,1.
  EXPECT_EQ(r.pairs, 4u);
  EXPECT_DOUBLE_EQ(r.average, 5.0 / 4.0);
  // Cross-component pairs: 3 * 2 = 6, skipped but counted.
  EXPECT_EQ(r.unreachable_pairs, 6u);
  EXPECT_DOUBLE_EQ(unweighted_apl(g), r.average);
}

TEST(UnweightedApl, StatsOnFullyDisconnectedGraph) {
  Graph g(3);  // no links at all: nothing to average
  auto r = unweighted_apl_stats(g);
  EXPECT_EQ(r.pairs, 0u);
  EXPECT_EQ(r.unreachable_pairs, 3u);
  EXPECT_DOUBLE_EQ(r.average, 0.0);
}

TEST(WeightedApl, ThrowsOnTwoComponents) {
  Graph g(5);
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

TEST(Diameter, PathAndCycle) {
  EXPECT_EQ(diameter(path_graph(5)), 4u);
  Graph cyc = path_graph(6);
  cyc.add_link(5, 0);
  EXPECT_EQ(diameter(cyc), 3u);
}

TEST(Diameter, DisconnectedThrows) {
  Graph g(2);
  EXPECT_THROW(diameter(g), std::runtime_error);
}

TEST(DegreeHistogram, CountsPerDegree) {
  Graph g = path_graph(4);  // degrees 1,2,2,1
  auto h = degree_histogram(g);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0], 0u);
  EXPECT_EQ(h[1], 2u);
  EXPECT_EQ(h[2], 2u);
}

}  // namespace
}  // namespace flattree::graph
