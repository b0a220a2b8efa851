#include "fault/degrade.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/flat_tree.hpp"

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

}  // namespace
}  // namespace flattree::fault
