#include "topo/topology.hpp"

#include <gtest/gtest.h>

namespace flattree::topo {
namespace {

Topology tiny() {
  Topology t;
  t.add_switch(SwitchKind::Edge, 0, 0, 4);
  t.add_switch(SwitchKind::Aggregation, 0, 0, 4);
  t.add_switch(SwitchKind::Core, -1, 0, 4);
  t.add_link(0, 1, LinkOrigin::ClosEdgeAgg);
  t.add_link(1, 2, LinkOrigin::PodCore);
  t.add_server(0);
  t.add_server(0);
  t.add_server(1);
  return t;
}

TEST(Topology, CountsAndInfo) {
  Topology t = tiny();
  EXPECT_EQ(t.switch_count(), 3u);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.server_count(), 3u);
  EXPECT_EQ(t.info(0).kind, SwitchKind::Edge);
  EXPECT_EQ(t.info(2).kind, SwitchKind::Core);
  EXPECT_EQ(t.info(2).pod, -1);
  EXPECT_EQ(t.link_info(0).origin, LinkOrigin::ClosEdgeAgg);
}

TEST(Topology, ServersPerSwitch) {
  Topology t = tiny();
  auto w = t.servers_per_switch();
  EXPECT_EQ(w[0], 2u);
  EXPECT_EQ(w[1], 1u);
  EXPECT_EQ(w[2], 0u);
}

TEST(Topology, AddServerBadHostThrows) {
  Topology t = tiny();
  EXPECT_THROW(t.add_server(99), std::out_of_range);
}

TEST(Topology, KindCounts) {
  Topology t = tiny();
  auto counts = t.kind_counts();
  EXPECT_EQ(counts[0], 1u);  // core
  EXPECT_EQ(counts[1], 1u);  // aggregation
  EXPECT_EQ(counts[2], 1u);  // edge
}

TEST(Topology, ValidatePassesWithinBudget) {
  EXPECT_NO_THROW(tiny().validate());
}

TEST(Topology, ValidateRejectsPortOverflow) {
  Topology t;
  t.add_switch(SwitchKind::Edge, 0, 0, 1);
  t.add_switch(SwitchKind::Edge, 0, 1, 4);
  t.add_link(0, 1, LinkOrigin::Random);
  t.add_server(0);  // switch 0 now uses 2 of 1 ports
  EXPECT_THROW(t.validate(), std::runtime_error);
}

TEST(Topology, ValidateRejectsDisconnected) {
  Topology t;
  t.add_switch(SwitchKind::Edge, 0, 0, 4);
  t.add_switch(SwitchKind::Edge, 0, 1, 4);
  EXPECT_THROW(t.validate(), std::runtime_error);
}

TEST(Topology, SummaryMentionsInventory) {
  std::string s = tiny().summary();
  EXPECT_NE(s.find("3 switches"), std::string::npos);
  EXPECT_NE(s.find("3 servers"), std::string::npos);
}

TEST(Topology, ToStringCoverage) {
  EXPECT_STREQ(to_string(SwitchKind::Core), "core");
  EXPECT_STREQ(to_string(SwitchKind::Aggregation), "aggregation");
  EXPECT_STREQ(to_string(SwitchKind::Edge), "edge");
  EXPECT_STREQ(to_string(LinkOrigin::ClosEdgeAgg), "clos-edge-agg");
  EXPECT_STREQ(to_string(LinkOrigin::InterPodSide), "inter-pod-side");
}

}  // namespace
}  // namespace flattree::topo
