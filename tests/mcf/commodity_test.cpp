#include "mcf/commodity.hpp"

#include <gtest/gtest.h>

namespace flattree::mcf {
namespace {

topo::Topology two_switch() {
  topo::Topology t;
  t.add_switch(topo::SwitchKind::Edge, 0, 0, 8);
  t.add_switch(topo::SwitchKind::Edge, 0, 1, 8);
  t.add_link(0, 1, topo::LinkOrigin::Random);
  for (int i = 0; i < 4; ++i) t.add_server(0);
  for (int i = 0; i < 4; ++i) t.add_server(1);
  return t;
}

TEST(Aggregate, MergesDuplicatesAndSumsDemand) {
  topo::Topology t = two_switch();
  std::vector<ServerDemand> demands{{0, 4, 1.0}, {1, 5, 2.0}, {2, 6, 0.5}};
  auto cs = aggregate_to_switches(t, demands);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].src, 0u);
  EXPECT_EQ(cs[0].dst, 1u);
  EXPECT_DOUBLE_EQ(cs[0].demand, 3.5);
}

TEST(Aggregate, DropsSameSwitchPairs) {
  topo::Topology t = two_switch();
  std::vector<ServerDemand> demands{{0, 1, 1.0}, {4, 5, 1.0}};
  EXPECT_TRUE(aggregate_to_switches(t, demands).empty());
}

TEST(Aggregate, KeepsDirectionsSeparate) {
  topo::Topology t = two_switch();
  std::vector<ServerDemand> demands{{0, 4, 1.0}, {4, 0, 3.0}};
  auto cs = aggregate_to_switches(t, demands);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].src, 0u);
  EXPECT_DOUBLE_EQ(cs[0].demand, 1.0);
  EXPECT_EQ(cs[1].src, 1u);
  EXPECT_DOUBLE_EQ(cs[1].demand, 3.0);
}

TEST(Aggregate, OutputSortedBySrcThenDst) {
  topo::Topology t;
  for (int i = 0; i < 4; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 8);
  for (int i = 0; i < 4; ++i) t.add_server(static_cast<graph::NodeId>(i));
  std::vector<ServerDemand> demands{{3, 0, 1}, {1, 2, 1}, {1, 0, 1}, {0, 3, 1}};
  auto cs = aggregate_to_switches(t, demands);
  ASSERT_EQ(cs.size(), 4u);
  for (std::size_t i = 1; i < cs.size(); ++i) {
    EXPECT_TRUE(cs[i - 1].src < cs[i].src ||
                (cs[i - 1].src == cs[i].src && cs[i - 1].dst < cs[i].dst));
  }
}

TEST(Aggregate, PreservesTotalCrossSwitchDemand) {
  topo::Topology t = two_switch();
  std::vector<ServerDemand> demands{{0, 4, 1.0}, {1, 5, 1.0}, {4, 2, 2.0}, {0, 1, 7.0}};
  auto cs = aggregate_to_switches(t, demands);
  double total = 0.0;
  for (const Commodity& c : cs) total += c.demand;
  EXPECT_DOUBLE_EQ(total, 4.0);  // the 7.0 is same-switch
}

TEST(GroupBySource, GroupsAndTotals) {
  std::vector<Commodity> cs{{0, 1, 1.0}, {0, 2, 2.0}, {3, 1, 0.5}};
  auto groups = group_by_source(cs);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].src, 0u);
  EXPECT_EQ(groups[0].targets.size(), 2u);
  EXPECT_DOUBLE_EQ(groups[0].total_demand, 3.0);
  EXPECT_EQ(groups[1].src, 3u);
  EXPECT_DOUBLE_EQ(groups[1].total_demand, 0.5);
}

TEST(GroupBySource, EmptyInput) {
  EXPECT_TRUE(group_by_source({}).empty());
}

}  // namespace
}  // namespace flattree::mcf
