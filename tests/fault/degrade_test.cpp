#include "fault/degrade.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/flat_tree.hpp"
#include "topo/apl.hpp"

namespace flattree::fault {
namespace {

core::FlatTreeNetwork make_net(std::uint32_t k = 4) {
  core::FlatTreeConfig cfg;
  cfg.k = k;
  return core::FlatTreeNetwork(cfg);
}

TEST(Degrade, DropCountsAndStrandedAgree) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  FaultState state(net.params().total_switches(), 0);
  FaultEvent e;
  e.time = 1.0;
  e.kind = FaultKind::SwitchDown;
  e.a = net.edge_switch(0, 0);
  state.apply(e);
  DegradeResult d = degrade(clos, state);
  EXPECT_EQ(d.dropped_links, clos.link_count() - d.topo.link_count());
  EXPECT_EQ(d.stranded.size(), net.params().servers_per_edge());
  EXPECT_TRUE(std::is_sorted(d.stranded.begin(), d.stranded.end()));
}

// The largest alive component counts alive servers only, skips stranded
// ones even on a live switch, and breaks a tie by the smallest root.
TEST(Degrade, LargestAliveComponentTieRuleAndStrandedServers) {
  topo::Topology t;
  for (std::uint32_t i = 0; i < 5; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  // Components {0, 1}, {2, 3} and {4}; link order puts the larger root first.
  t.add_link(3, 2, topo::LinkOrigin::Random);
  t.add_link(1, 0, topo::LinkOrigin::Random);
  for (graph::NodeId host : {0u, 1u, 2u, 3u, 4u, 4u, 4u}) t.add_server(host);

  // Two alive servers in each of {0, 1} and {2, 3}: the tie goes to root 0.
  std::vector<char> stranded = {0, 0, 0, 0, 1, 1, 1};
  EXPECT_EQ(largest_alive_component(t, stranded), (std::vector<ServerId>{0, 1}));

  // Switch 4 hosts the most servers, but stranded servers never count.
  stranded = {1, 0, 0, 0, 1, 1, 0};
  EXPECT_EQ(largest_alive_component(t, stranded), (std::vector<ServerId>{2, 3}));
  stranded = {1, 1, 1, 1, 0, 0, 1};
  EXPECT_EQ(largest_alive_component(t, stranded), (std::vector<ServerId>{4, 5}));
}

// Two alive islands: APL is the larger island's, and `served` weighs the
// lost demand by volume (stranded endpoints, then the unreachable
// cross-island pair) instead of throwing on the disconnected alive pair.
TEST(Assess, TwoIslandsGiveLargestIslandAplAndDemandWeightedServed) {
  topo::Topology t;
  for (std::uint32_t i = 0; i < 5; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  t.add_link(0, 1, topo::LinkOrigin::Random);  // island {0, 1, 2}
  t.add_link(1, 2, topo::LinkOrigin::Random);
  t.add_link(3, 4, topo::LinkOrigin::Random);  // island {3, 4}
  for (graph::NodeId host : {0u, 2u, 1u, 3u, 4u, 4u}) t.add_server(host);
  const std::vector<ServerId> stranded = {5};
  const std::vector<mcf::ServerDemand> demands = {
      {0, 1, 2.0},  // island {0, 1, 2}
      {3, 4, 1.0},  // island {3, 4}
      {0, 3, 1.0},  // across the islands: unreachable
      {5, 0, 1.0},  // stranded source
  };
  // Every alive pair is not connected, so an APL over all of them throws.
  EXPECT_THROW(topo::server_apl_subset(t, {0, 1, 2, 3, 4}), std::runtime_error);

  Assessment a;
  ASSERT_NO_THROW(a = assess(t, stranded, demands, 0.12, 0));
  EXPECT_EQ(a.alive, 3u);
  EXPECT_EQ(a.apl, topo::server_apl_subset(t, {0, 1, 2}).average);
  ASSERT_TRUE(a.solved);
  EXPECT_TRUE(a.certificate.ok()) << a.certificate.to_string();
  // 4 of 5 units have both endpoints alive; 3 of those 4 are reachable.
  EXPECT_DOUBLE_EQ(a.served, 0.6);
  EXPECT_DOUBLE_EQ(a.result.served_fraction, 0.75);
  // Island {0, 1, 2} carries 2 units over unit links: the optimum is 0.5.
  EXPECT_GT(a.result.lambda_lower, 0.0);
  EXPECT_LE(a.result.lambda_lower, 0.5 + 1e-9);
  EXPECT_GE(a.result.lambda_upper, 0.5 - 1e-9);
}

}  // namespace
}  // namespace flattree::fault
