#include "core/controller.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "obs/metrics.hpp"

namespace flattree::core {
namespace {

FlatTreeConfig small_config() {
  FlatTreeConfig cfg;
  cfg.k = 8;
  return cfg;
}

TEST(Controller, BootsInClos) {
  Controller ctl(small_config());
  for (Mode m : ctl.pod_modes()) EXPECT_EQ(m, Mode::Clos);
  topo::Topology t = ctl.topology();
  for (topo::ServerId s = 0; s < t.server_count(); ++s)
    EXPECT_EQ(t.info(t.host(s)).kind, topo::SwitchKind::Edge);
}

TEST(Controller, NoOpPlanIsEmpty) {
  Controller ctl(small_config());
  ReconfigPlan plan = ctl.plan(Mode::Clos);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.links_added, 0u);
  EXPECT_EQ(plan.links_removed, 0u);
  EXPECT_EQ(plan.servers_moved, 0u);
}

TEST(Controller, ClosToGlobalTouchesEveryConverter) {
  Controller ctl(small_config());
  ReconfigPlan plan = ctl.plan(Mode::GlobalRandom);
  EXPECT_EQ(plan.steps.size(), ctl.network().converters().size());
  for (const ReconfigStep& s : plan.steps) EXPECT_EQ(s.from, ConverterConfig::Default);
}

TEST(Controller, ClosToLocalTouchesOnlyFourPorts) {
  Controller ctl(small_config());
  ReconfigPlan plan = ctl.plan(Mode::LocalRandom);
  std::size_t four_ports = 0;
  for (const Converter& c : ctl.network().converters())
    if (c.type == ConverterType::FourPort) ++four_ports;
  EXPECT_EQ(plan.steps.size(), four_ports);
  for (const ReconfigStep& s : plan.steps) EXPECT_EQ(s.to, ConverterConfig::Local);
}

TEST(Controller, LinkChurnConservesLinkCount) {
  Controller ctl(small_config());
  ReconfigPlan plan = ctl.plan(Mode::GlobalRandom);
  EXPECT_EQ(plan.links_added, plan.links_removed);
  EXPECT_GT(plan.links_added, 0u);
}

TEST(Controller, ServersMovedMatchesRelocations) {
  Controller ctl(small_config());
  ReconfigPlan plan = ctl.plan(Mode::LocalRandom);
  // Local mode relocates n servers per (edge, agg) pair.
  const auto& p = ctl.network().params();
  EXPECT_EQ(plan.servers_moved, static_cast<std::size_t>(p.pods()) * p.d() *
                                    ctl.network().config().n);
}

TEST(Controller, ApplyUpdatesState) {
  Controller ctl(small_config());
  ReconfigPlan plan = ctl.apply(Mode::GlobalRandom);
  EXPECT_FALSE(plan.empty());
  for (Mode m : ctl.pod_modes()) EXPECT_EQ(m, Mode::GlobalRandom);
  // Re-applying is a no-op.
  EXPECT_TRUE(ctl.apply(Mode::GlobalRandom).empty());
}

TEST(Controller, ApplyThenTopologyMatchesDirectBuild) {
  Controller ctl(small_config());
  ctl.apply(Mode::LocalRandom);
  topo::Topology via_ctl = ctl.topology();
  FlatTreeNetwork net(small_config());
  topo::Topology direct = net.build(Mode::LocalRandom);
  ASSERT_EQ(via_ctl.server_count(), direct.server_count());
  for (topo::ServerId s = 0; s < via_ctl.server_count(); ++s)
    EXPECT_EQ(via_ctl.host(s), direct.host(s));
  EXPECT_EQ(via_ctl.link_count(), direct.link_count());
}

TEST(Controller, RoundTripReturnsToClos) {
  Controller ctl(small_config());
  ReconfigPlan to_global = ctl.apply(Mode::GlobalRandom);
  ReconfigPlan back = ctl.apply(Mode::Clos);
  EXPECT_EQ(to_global.steps.size(), back.steps.size());
  EXPECT_EQ(back.links_added, to_global.links_removed);
  EXPECT_EQ(back.links_removed, to_global.links_added);
  for (Mode m : ctl.pod_modes()) EXPECT_EQ(m, Mode::Clos);
}

TEST(Controller, PerPodTargets) {
  Controller ctl(small_config());
  std::vector<Mode> target(ctl.network().params().pods(), Mode::Clos);
  target[0] = Mode::LocalRandom;
  ReconfigPlan plan = ctl.apply(target);
  // Only pod 0's 4-port converters change.
  for (const ReconfigStep& s : plan.steps)
    EXPECT_EQ(ctl.network().converters()[s.converter].pod, 0u);
  EXPECT_EQ(ctl.pod_modes()[0], Mode::LocalRandom);
  EXPECT_EQ(ctl.pod_modes()[1], Mode::Clos);
}

TEST(Controller, ApplyZonePartition) {
  Controller ctl(small_config());
  ZonePartition zones = ZonePartition::proportion(8, 0.5);
  ctl.apply(zones);
  EXPECT_EQ(ctl.pod_modes()[0], Mode::GlobalRandom);
  EXPECT_EQ(ctl.pod_modes()[7], Mode::LocalRandom);
}

TEST(Controller, PlanDoesNotMutate) {
  Controller ctl(small_config());
  ctl.plan(Mode::GlobalRandom);
  for (Mode m : ctl.pod_modes()) EXPECT_EQ(m, Mode::Clos);
  topo::Topology t = ctl.topology();
  for (topo::ServerId s = 0; s < t.server_count(); ++s)
    EXPECT_EQ(t.info(t.host(s)).kind, topo::SwitchKind::Edge);
}

TEST(Controller, ChurnCountersRecordAppliesNotPreviews) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset_metrics();
  auto counter = [](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : obs::snapshot_metrics().counters)
      if (n == "core.controller." + name) return v;
    return 0;
  };
  Controller ctl(small_config());
  ReconfigPlan preview = ctl.plan(Mode::GlobalRandom);
  EXPECT_EQ(counter("plans"), 1u);
  for (const char* churn : {"conversion_steps", "links_added", "links_removed",
                            "servers_moved"})
    EXPECT_EQ(counter(churn), 0u) << churn;

  ReconfigPlan executed = ctl.apply(Mode::GlobalRandom);
  EXPECT_EQ(executed.steps.size(), preview.steps.size());
  EXPECT_EQ(counter("applies"), 1u);
  EXPECT_EQ(counter("conversion_steps"), executed.steps.size());
  EXPECT_EQ(counter("links_added"), executed.links_added);
  EXPECT_EQ(counter("links_removed"), executed.links_removed);
  EXPECT_EQ(counter("servers_moved"), executed.servers_moved);
  obs::reset_metrics();
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace flattree::core
