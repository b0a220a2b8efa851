#include "topo/fat_tree.hpp"

#include <gtest/gtest.h>

#include "graph/adjacent.hpp"
#include "graph/bfs.hpp"
#include "topo/apl.hpp"
#include "topo/topo_helpers.hpp"

namespace flattree::topo {
namespace {

class FatTreeParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FatTreeParam, EquipmentCountsMatchFormulas) {
  const std::uint32_t k = GetParam();
  FatTree ft = build_fat_tree(k);
  auto counts = ft.topo.kind_counts();
  EXPECT_EQ(counts[0], k * k / 4);      // cores
  EXPECT_EQ(counts[1], k * k / 2);      // aggregation
  EXPECT_EQ(counts[2], k * k / 2);      // edge
  EXPECT_EQ(ft.topo.server_count(), k * k * k / 4);
  // Links: k pods x (k/2)^2 edge-agg + same count agg-core.
  EXPECT_EQ(ft.topo.link_count(), 2u * k * (k / 2) * (k / 2));
}

TEST_P(FatTreeParam, EverySwitchPortBudgetExactlyFull) {
  const std::uint32_t k = GetParam();
  FatTree ft = build_fat_tree(k);
  for (graph::NodeId v = 0; v < ft.topo.switch_count(); ++v)
    EXPECT_EQ(used_ports(ft.topo, v), k) << "switch " << v;
}

TEST_P(FatTreeParam, ValidatesAndConnected) {
  FatTree ft = build_fat_tree(GetParam());
  EXPECT_NO_THROW(ft.topo.validate());
}

TEST_P(FatTreeParam, ServersOnlyOnEdgeSwitches) {
  FatTree ft = build_fat_tree(GetParam());
  for (ServerId s = 0; s < ft.topo.server_count(); ++s)
    EXPECT_EQ(ft.topo.info(ft.topo.host(s)).kind, SwitchKind::Edge);
}

TEST_P(FatTreeParam, InterPodServerDistanceIsSix) {
  const std::uint32_t k = GetParam();
  FatTree ft = build_fat_tree(k);
  auto dist = graph::bfs_distances(ft.topo.graph(), ft.topo.host(server_at(ft, 0, 0, 0)));
  // Server in another pod: edge->agg->core->agg->edge = 4 switch hops (+2).
  graph::NodeId other = ft.topo.host(server_at(ft, 1, 0, 0));
  EXPECT_EQ(dist[other], 4u);
}

TEST_P(FatTreeParam, IntraPodDistances) {
  const std::uint32_t k = GetParam();
  FatTree ft = build_fat_tree(k);
  auto dist = graph::bfs_distances(ft.topo.graph(), ft.edge_switch(0, 0));
  // Same-pod edge switches are 2 apart (via any aggregation switch).
  if (k >= 4) {
    EXPECT_EQ(dist[ft.edge_switch(0, 1)], 2u);
  }
  EXPECT_EQ(dist[ft.agg_switch(0, 0)], 1u);
}

TEST_P(FatTreeParam, CoreWiringPattern) {
  const std::uint32_t k = GetParam();
  FatTree ft = build_fat_tree(k);
  const auto& g = ft.topo.graph();
  // Aggregation switch i connects exactly to cores [i*h, (i+1)*h).
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t i = 0; i < k / 2; ++i) {
      for (std::uint32_t c = 0; c < k * k / 4; ++c) {
        bool expected = c >= i * (k / 2) && c < (i + 1) * (k / 2);
        EXPECT_EQ(graph::adjacent(g, ft.agg_switch(pod, i), ft.core_switch(c)), expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FatTreeParam, ::testing::Values(4u, 6u, 8u, 10u, 14u));

TEST(FatTree, RejectsOddOrTinyK) {
  EXPECT_THROW(build_fat_tree(3), std::invalid_argument);
  EXPECT_THROW(build_fat_tree(2), std::invalid_argument);
  EXPECT_THROW(build_fat_tree(5), std::invalid_argument);
  EXPECT_THROW(build_fat_tree(0), std::invalid_argument);
}

TEST(FatTree, IdLayoutHelpers) {
  FatTree ft = build_fat_tree(4);
  // k=4: per pod 2 edges then 2 aggs; cores after all pods.
  EXPECT_EQ(ft.edge_switch(0, 0), 0u);
  EXPECT_EQ(ft.edge_switch(0, 1), 1u);
  EXPECT_EQ(ft.agg_switch(0, 0), 2u);
  EXPECT_EQ(ft.agg_switch(0, 1), 3u);
  EXPECT_EQ(ft.edge_switch(1, 0), 4u);
  EXPECT_EQ(ft.core_switch(0), 16u);
  // Servers are numbered edge by edge: 0-1 on E0_0, 2-3 on E0_1, 4 on E1_0.
  EXPECT_EQ(ft.topo.host(0), ft.edge_switch(0, 0));
  EXPECT_EQ(ft.topo.host(2), ft.edge_switch(0, 1));
  EXPECT_EQ(ft.topo.host(4), ft.edge_switch(1, 0));
}

TEST(FatTree, ServerIdsAreConsecutiveWithinEdges) {
  FatTree ft = build_fat_tree(6);
  const auto& p = ft.params;
  for (std::uint32_t pod = 0; pod < p.pods(); ++pod)
    for (std::uint32_t j = 0; j < p.d(); ++j)
      for (std::uint32_t s = 0; s < p.servers_per_edge(); ++s)
        EXPECT_EQ(ft.topo.host(server_at(ft, pod, j, s)), ft.edge_switch(pod, j));
}

TEST(FatTree, AplMatchesClosedForm) {
  // Fat-tree server APL closed form: pairs on same edge (2), same pod
  // different edge (4), inter-pod (6), weighted by pair counts.
  const std::uint32_t k = 8;
  FatTree ft = build_fat_tree(k);
  double n = k * k * k / 4.0;
  double per_edge = k / 2.0, per_pod = k * k / 4.0;
  double pairs = n * (n - 1) / 2.0;
  double same_edge = n * (per_edge - 1) / 2.0;
  double same_pod = n * (per_pod - per_edge) / 2.0;
  double inter_pod = pairs - same_edge - same_pod;
  double expect = (2 * same_edge + 4 * same_pod + 6 * inter_pod) / pairs;
  auto apl = server_apl(ft.topo);
  EXPECT_NEAR(apl.average, expect, 1e-9);
  EXPECT_EQ(apl.pairs, static_cast<std::uint64_t>(pairs));
  EXPECT_EQ(apl.max_dist, 6u);
}

TEST(ClosParams, DerivedQuantities) {
  ClosParams p;
  p.k = 12;
  EXPECT_EQ(p.pods(), 12u);
  EXPECT_EQ(p.d(), 6u);
  EXPECT_EQ(p.aggs_per_pod(), 6u);
  EXPECT_EQ(p.h(), 6u);
  EXPECT_EQ(p.cores(), 36u);
  EXPECT_EQ(p.servers_per_pod(), 36u);
  EXPECT_EQ(p.total_servers(), 432u);
  EXPECT_EQ(p.total_switches(), 12u * 12u + 36u);
}

}  // namespace
}  // namespace flattree::topo
