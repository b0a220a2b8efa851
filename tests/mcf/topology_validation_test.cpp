// Solver validation on real (small) flat-tree topologies, not just toy
// graph: exact simplex LP vs GK FPTAS vs the exact one-source max-flow on
// k = 4 networks in each operating mode.

#include <gtest/gtest.h>

#include "core/flat_tree.hpp"
#include "mcf/garg_koenemann.hpp"
#include "mcf/lp_exact.hpp"
#include "workload/traffic.hpp"

namespace flattree::mcf {
namespace {

class TopologyValidation : public ::testing::TestWithParam<core::Mode> {};

TEST_P(TopologyValidation, GkBracketsExactOnFlatTreeK4) {
  core::FlatTreeConfig cfg;
  cfg.k = 4;
  core::FlatTreeNetwork net(cfg);
  topo::Topology t = net.build(GetParam());

  // A small multicommodity instance: 4 cross-pod server demands.
  std::vector<ServerDemand> demands{{0, 5, 1.0}, {5, 0, 1.0}, {10, 3, 2.0}, {7, 14, 1.0}};
  auto commodities = aggregate_to_switches(t, demands);
  ASSERT_FALSE(commodities.empty());

  auto exact = max_concurrent_flow_exact(t.graph(), commodities, /*max_variables=*/60'000);
  ASSERT_TRUE(exact.solved);
  EXPECT_GT(exact.lambda, 0.0);

  McfOptions opt;
  opt.epsilon = 0.05;
  auto gk = max_concurrent_flow(t.graph(), commodities, opt);
  EXPECT_LE(gk.lambda_lower, exact.lambda * (1 + 1e-6)) << core::to_string(GetParam());
  EXPECT_GE(gk.lambda_upper, exact.lambda * (1 - 1e-6)) << core::to_string(GetParam());
  EXPECT_GE(gk.lambda_lower, exact.lambda * (1 - 3.2 * opt.epsilon));
}

TEST_P(TopologyValidation, BroadcastAgreesWithDinicOracle) {
  core::FlatTreeConfig cfg;
  cfg.k = 4;
  core::FlatTreeNetwork net(cfg);
  topo::Topology t = net.build(GetParam());

  util::Rng rng(3);
  auto clusters = workload::make_clusters(16, 16, workload::Placement::Locality, 4, rng);
  auto demands = workload::cluster_traffic(clusters, workload::Pattern::Broadcast, rng);
  auto commodities = aggregate_to_switches(t, demands);
  auto groups = group_by_source(commodities);
  ASSERT_EQ(groups.size(), 1u);

  auto exact = max_concurrent_flow_exact(t.graph(), commodities, /*max_variables=*/80'000);
  ASSERT_TRUE(exact.solved);
  // One source, so max_concurrent_flow runs the exact max-flow path.
  auto r = max_concurrent_flow(t.graph(), commodities);
  EXPECT_NEAR(r.lambda_lower, exact.lambda, exact.lambda * 1e-6);
  EXPECT_LE(r.lambda_lower, exact.lambda * (1 + 1e-9));
  EXPECT_GE(r.lambda_upper, exact.lambda * (1 - 1e-9));
  EXPECT_FALSE(r.cut_source_side.empty());
}

INSTANTIATE_TEST_SUITE_P(Modes, TopologyValidation,
                         ::testing::Values(core::Mode::Clos, core::Mode::GlobalRandom,
                                           core::Mode::LocalRandom),
                         [](const ::testing::TestParamInfo<core::Mode>& info) {
                           std::string name = core::to_string(info.param);
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

TEST(TopologyValidation, IncastMirrorsBroadcastOnFullDuplex) {
  // With symmetric full-duplex capacities, incast to a hot spot achieves
  // the same lambda as broadcast from it.
  core::FlatTreeConfig cfg;
  cfg.k = 4;
  core::FlatTreeNetwork net(cfg);
  topo::Topology t = net.build(core::Mode::GlobalRandom);
  util::Rng rng(4);
  auto clusters = workload::make_clusters(16, 16, workload::Placement::Locality, 4, rng);
  util::Rng r1(9), r2(9);  // same hot-spot draw
  auto bc = aggregate_to_switches(t, workload::broadcast_traffic(clusters[0], r1));
  auto in = aggregate_to_switches(t, workload::incast_traffic(clusters[0], r2));
  McfOptions opt;
  opt.epsilon = 0.05;
  auto lb = max_concurrent_flow(t.graph(), bc, opt);
  auto li = max_concurrent_flow(t.graph(), in, opt);
  EXPECT_NEAR(lb.lambda_lower, li.lambda_lower, lb.lambda_lower * 0.12);
}

}  // namespace
}  // namespace flattree::mcf
