#include "core/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/bfs.hpp"

namespace flattree::core {
namespace {

FlatTreeNetwork make_net(std::uint32_t k = 8) {
  FlatTreeConfig cfg;
  cfg.k = k;
  return FlatTreeNetwork(cfg);
}

/// Servers stranded under `configs` + `failures`, before any recovery.
std::size_t stranded_count(const FlatTreeNetwork& net,
                           const std::vector<ConverterConfig>& configs,
                           const FailureSet& failures) {
  return apply_failures(net.materialize(configs), failures).stranded_servers.size();
}

TEST(ApplyFailures, RemovesIncidentLinks) {
  FlatTreeNetwork net = make_net();
  topo::Topology t = net.build(Mode::Clos);
  NodeId core0 = net.core_switch(0);
  FailureSet f;
  f.failed_switches = {core0};
  DegradedTopology d = apply_failures(t, f);
  EXPECT_EQ(d.failed_links, net.config().k);  // one link per pod
  EXPECT_EQ(d.topo.link_count(), t.link_count() - net.config().k);
  EXPECT_EQ(d.topo.graph().neighbors(core0).size(), 0u);
  EXPECT_TRUE(d.stranded_servers.empty());  // Clos keeps servers on edges
}

TEST(ApplyFailures, StrandsServersOnFailedHosts) {
  FlatTreeNetwork net = make_net();
  topo::Topology t = net.build(Mode::GlobalRandom);
  // Find a core hosting servers (side/cross relocations).
  NodeId victim = graph::kInvalidNode;
  auto weights = t.servers_per_switch();
  for (NodeId v = 0; v < t.switch_count(); ++v) {
    if (t.info(v).kind == topo::SwitchKind::Core && weights[v] > 0) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, graph::kInvalidNode);
  FailureSet f;
  f.failed_switches = {victim};
  DegradedTopology d = apply_failures(t, f);
  EXPECT_EQ(d.stranded_servers.size(), weights[victim]);
}

TEST(ApplyFailures, PreservesIdsAndOtherServers) {
  FlatTreeNetwork net = make_net();
  topo::Topology t = net.build(Mode::Clos);
  FailureSet f;
  f.failed_switches = {net.agg_switch(0, 0)};
  DegradedTopology d = apply_failures(t, f);
  ASSERT_EQ(d.topo.switch_count(), t.switch_count());
  ASSERT_EQ(d.topo.server_count(), t.server_count());
  for (topo::ServerId s = 0; s < t.server_count(); ++s)
    EXPECT_EQ(d.topo.host(s), t.host(s));
}

TEST(PlanRecovery, RescuesServersFromFailedCore) {
  FlatTreeNetwork net = make_net();
  auto configs = net.assign_configs(Mode::GlobalRandom);
  topo::Topology t = net.materialize(configs);
  // Fail every core that hosts servers in one group.
  auto weights = t.servers_per_switch();
  FailureSet f;
  for (NodeId v = 0; v < t.switch_count(); ++v)
    if (t.info(v).kind == topo::SwitchKind::Core && weights[v] > 0) {
      f.failed_switches.push_back(v);
      if (f.failed_switches.size() == 3) break;
    }
  ASSERT_FALSE(f.failed_switches.empty());
  std::size_t before = stranded_count(net, configs, f);
  EXPECT_GT(before, 0u);

  auto recovered = plan_recovery(net, configs, f).configs;
  EXPECT_EQ(validate_assignment(net.converters(), recovered), "");
  EXPECT_EQ(stranded_count(net, recovered, f), 0u);
}

TEST(PlanRecovery, RescuesServersFromFailedEdge) {
  FlatTreeNetwork net = make_net();
  auto configs = net.assign_configs(Mode::Clos);
  FailureSet f;
  f.failed_switches = {net.edge_switch(0, 0)};
  std::size_t before = stranded_count(net, configs, f);
  EXPECT_EQ(before, net.params().servers_per_edge());

  auto recovered = plan_recovery(net, configs, f).configs;
  // The m + n tapped servers move to the aggregation switch; the rest are
  // hard-wired to the failed edge switch and cannot be saved.
  std::size_t after = stranded_count(net, recovered, f);
  EXPECT_EQ(after, net.params().servers_per_edge() - net.config().m - net.config().n);
}

TEST(PlanRecovery, UntouchedWhenNoRelevantFailure) {
  // At k = 6 global RG, 3 of the 9 cores host no servers (at k = 8 every
  // core does), so the fixture always has a failure that touches none.
  FlatTreeNetwork net = make_net(6);
  auto configs = net.assign_configs(Mode::GlobalRandom);
  FailureSet f;
  // Fail a core with no servers under the current configuration.
  topo::Topology t = net.materialize(configs);
  auto weights = t.servers_per_switch();
  for (NodeId v = 0; v < t.switch_count(); ++v)
    if (t.info(v).kind == topo::SwitchKind::Core && weights[v] == 0) {
      f.failed_switches.push_back(v);
      break;
    }
  ASSERT_FALSE(f.failed_switches.empty()) << "every core hosts servers";
  auto recovered = plan_recovery(net, configs, f).configs;
  EXPECT_EQ(recovered, configs);
}

TEST(PlanRecovery, PairFlippedJointly) {
  FlatTreeNetwork net = make_net();
  auto configs = net.assign_configs(Mode::GlobalRandom);
  // Pick any side-configured converter and fail its core.
  std::uint32_t idx = ~0u;
  for (std::uint32_t i = 0; i < net.converters().size(); ++i)
    if (configs[i] == ConverterConfig::Side) {
      idx = i;
      break;
    }
  ASSERT_NE(idx, ~0u);
  FailureSet f;
  f.failed_switches = {net.converters()[idx].core};
  auto recovered = plan_recovery(net, configs, f).configs;
  std::uint32_t peer = net.converters()[idx].peer;
  EXPECT_EQ(recovered[idx], ConverterConfig::Local);
  EXPECT_EQ(recovered[peer], ConverterConfig::Local);
}

TEST(PlanRecovery, FallsBackToEdgeWhenAggAlsoFailed) {
  FlatTreeNetwork net = make_net();
  auto configs = net.assign_configs(Mode::GlobalRandom);
  std::uint32_t idx = ~0u;
  for (std::uint32_t i = 0; i < net.converters().size(); ++i)
    if (configs[i] == ConverterConfig::Side) {
      idx = i;
      break;
    }
  ASSERT_NE(idx, ~0u);
  const Converter& c = net.converters()[idx];
  FailureSet f;
  f.failed_switches = {c.core, c.agg};
  auto recovered = plan_recovery(net, configs, f).configs;
  EXPECT_EQ(recovered[idx], ConverterConfig::Default);  // edge still alive
}

TEST(PlanRecovery, ReportsUnrecoverableWhenAggAndEdgeBothFailed) {
  // Regression: safe_standalone used to return Local when both standalone
  // homes had failed, silently homing the server on the dead aggregation
  // switch and reporting the recovery as successful.
  FlatTreeNetwork net = make_net();
  auto configs = net.assign_configs(Mode::GlobalRandom);
  std::uint32_t idx = ~0u;
  for (std::uint32_t i = 0; i < net.converters().size(); ++i)
    if (configs[i] == ConverterConfig::Side) {
      idx = i;
      break;
    }
  ASSERT_NE(idx, ~0u);
  const Converter& c = net.converters()[idx];
  FailureSet f;
  f.failed_switches = {c.core, c.agg, c.edge};
  RecoveryPlan plan = plan_recovery(net, configs, f);
  // The converter is reported unrecoverable, not silently "rescued".
  // (Other converters tapping the same failed edge/agg blade are reported
  // too; every reported converter must genuinely have both homes dead.)
  EXPECT_TRUE(std::find(plan.unrecoverable.begin(), plan.unrecoverable.end(), idx) !=
              plan.unrecoverable.end());
  FailureMask failed(f, net.params().total_switches());
  for (std::uint32_t u : plan.unrecoverable) {
    EXPECT_TRUE(failed.failed(net.converters()[u].agg));
    EXPECT_TRUE(failed.failed(net.converters()[u].edge));
  }
  // The assignment stays physically valid and the peer (whose own homes
  // are in the adjacent pod) is recovered normally.
  EXPECT_EQ(validate_assignment(net.converters(), plan.configs), "");
  std::uint32_t peer = c.peer;
  EXPECT_EQ(plan.configs[peer], ConverterConfig::Local);
  // The stranded count agrees: the unrecoverable server stays stranded.
  std::size_t stranded = stranded_count(net, plan.configs, f);
  EXPECT_GE(stranded, plan.unrecoverable.size());
  topo::Topology t = net.materialize(plan.configs);
  EXPECT_TRUE(failed.failed(t.host(c.server)));
}

TEST(PlanRecovery, UnrecoverableFourPortConverter) {
  FlatTreeNetwork net = make_net();
  auto configs = net.assign_configs(Mode::GlobalRandom);
  std::uint32_t idx = ~0u;
  for (std::uint32_t i = 0; i < net.converters().size(); ++i)
    if (net.converters()[i].type == ConverterType::FourPort) {
      idx = i;
      break;
    }
  ASSERT_NE(idx, ~0u);
  ASSERT_EQ(configs[idx], ConverterConfig::Local);  // global-random 4-port
  const Converter& c = net.converters()[idx];
  FailureSet f;
  f.failed_switches = {c.agg, c.edge};
  RecoveryPlan plan = plan_recovery(net, configs, f);
  ASSERT_FALSE(plan.unrecoverable.empty());
  EXPECT_TRUE(std::find(plan.unrecoverable.begin(), plan.unrecoverable.end(), idx) !=
              plan.unrecoverable.end());
}

// -- input validation / dedup satellites (ISSUE 5) --------------------------

TEST(FailureMask, CollapsesDuplicatesAndRejectsOutOfRange) {
  FailureSet f;
  f.failed_switches = {5, 2, 5, 2};
  FailureMask mask(f, 8);
  EXPECT_EQ(mask.count(), 2u);
  EXPECT_TRUE(mask.failed(2));
  EXPECT_TRUE(mask.failed(5));
  EXPECT_FALSE(mask.failed(3));

  FailureSet bad;
  bad.failed_switches = {8};
  EXPECT_THROW(FailureMask(bad, 8), std::invalid_argument);
}

// Regression: duplicate and unsorted ids used to flow straight into the
// recovery entry points; they must behave exactly like the deduplicated
// set, and out-of-range ids must throw instead of being ignored.
TEST(ApplyFailures, DuplicateIdsBehaveLikeTheDedupedSet) {
  FlatTreeNetwork net = make_net();
  topo::Topology t = net.build(Mode::GlobalRandom);
  NodeId core0 = net.core_switch(0);
  NodeId agg0 = net.agg_switch(0, 0);
  FailureSet dup, clean;
  dup.failed_switches = {core0, agg0, core0, agg0, core0};
  clean.failed_switches = {agg0, core0};

  DegradedTopology a = apply_failures(t, dup);
  DegradedTopology b = apply_failures(t, clean);
  EXPECT_EQ(a.failed_links, b.failed_links);
  EXPECT_EQ(a.stranded_servers, b.stranded_servers);
  EXPECT_EQ(a.topo.link_count(), b.topo.link_count());

  auto configs = net.assign_configs(Mode::GlobalRandom);
  EXPECT_EQ(plan_recovery(net, configs, dup).configs,
            plan_recovery(net, configs, clean).configs);
  EXPECT_EQ(stranded_count(net, configs, dup),
            stranded_count(net, configs, clean));

  FailureSet bad;
  bad.failed_switches = {net.params().total_switches()};
  EXPECT_THROW(apply_failures(t, bad), std::invalid_argument);
  EXPECT_THROW(plan_recovery(net, configs, bad), std::invalid_argument);
}

TEST(ApplyFailures, EmptySetIsANoOp) {
  FlatTreeNetwork net = make_net();
  topo::Topology t = net.build(Mode::GlobalRandom);
  FailureSet none;
  DegradedTopology d = apply_failures(t, none);
  EXPECT_EQ(d.failed_links, 0u);
  EXPECT_TRUE(d.stranded_servers.empty());
  EXPECT_EQ(d.topo.link_count(), t.link_count());
  auto configs = net.assign_configs(Mode::GlobalRandom);
  EXPECT_EQ(plan_recovery(net, configs, none).configs, configs);
}

TEST(PlanRecovery, AllCoresFailedFlipsEverythingStandalone) {
  FlatTreeNetwork net = make_net();
  auto configs = net.assign_configs(Mode::GlobalRandom);
  FailureSet f;
  topo::Topology t = net.materialize(configs);
  for (NodeId v = 0; v < t.switch_count(); ++v)
    if (t.info(v).kind == topo::SwitchKind::Core) f.failed_switches.push_back(v);
  ASSERT_FALSE(f.failed_switches.empty());

  RecoveryPlan plan = plan_recovery(net, configs, f);
  EXPECT_EQ(validate_assignment(net.converters(), plan.configs), "");
  EXPECT_TRUE(plan.unrecoverable.empty());  // agg/edge homes all alive
  EXPECT_EQ(stranded_count(net, plan.configs, f), 0u);
  for (std::uint32_t i = 0; i < net.converters().size(); ++i) {
    EXPECT_NE(plan.configs[i], ConverterConfig::Side);
    EXPECT_NE(plan.configs[i], ConverterConfig::Cross);
  }
}

// -- plan_recovery edge-case satellites (ISSUE 5) ---------------------------

// Every standalone home of one side/cross member is dead while its
// partner's homes are alive: the member is unrecoverable, the partner must
// still be rescued to a standalone home of its own.
TEST(PlanRecovery, PairMemberWithAllHomesDeadLeavesPartnerRecovered) {
  FlatTreeNetwork net = make_net();
  auto configs = net.assign_configs(Mode::GlobalRandom);
  std::uint32_t idx = ~0u;
  for (std::uint32_t i = 0; i < net.converters().size(); ++i)
    if (configs[i] == ConverterConfig::Side || configs[i] == ConverterConfig::Cross) {
      idx = i;
      break;
    }
  ASSERT_NE(idx, ~0u);
  const Converter& c = net.converters()[idx];
  const Converter& peer = net.converters()[c.peer];
  // Kill both of the member's standalone homes and both cores (so the pair
  // cannot stay jointly configured either). The partner's own standalone
  // homes sit in the other pod and stay alive.
  FailureSet f;
  f.failed_switches = {c.core, c.agg, c.edge, peer.core};
  ASSERT_NE(peer.agg, c.agg);
  ASSERT_NE(peer.edge, c.edge);

  RecoveryPlan plan = plan_recovery(net, configs, f);
  EXPECT_EQ(validate_assignment(net.converters(), plan.configs), "");
  EXPECT_TRUE(std::find(plan.unrecoverable.begin(), plan.unrecoverable.end(), idx) !=
              plan.unrecoverable.end());
  EXPECT_TRUE(std::find(plan.unrecoverable.begin(), plan.unrecoverable.end(), c.peer) ==
              plan.unrecoverable.end());
  EXPECT_EQ(plan.configs[c.peer], ConverterConfig::Local);
  topo::Topology t = net.materialize(plan.configs);
  EXPECT_EQ(t.host(peer.server), peer.agg);
}

// Planning on an already-recovered configuration is idempotent: the same
// failures produce no further churn and the same unrecoverable verdicts.
TEST(PlanRecovery, IdempotentOnARecoveredConfiguration) {
  FlatTreeNetwork net = make_net();
  auto configs = net.assign_configs(Mode::GlobalRandom);
  FailureSet f;
  topo::Topology t = net.materialize(configs);
  auto weights = t.servers_per_switch();
  for (NodeId v = 0; v < t.switch_count(); ++v)
    if (t.info(v).kind == topo::SwitchKind::Core && weights[v] > 0)
      f.failed_switches.push_back(v);
  // Make one converter genuinely unrecoverable too.
  const Converter& c0 = net.converters()[0];
  f.failed_switches.push_back(c0.agg);
  f.failed_switches.push_back(c0.edge);

  RecoveryPlan first = plan_recovery(net, configs, f);
  RecoveryPlan second = plan_recovery(net, first.configs, f);
  EXPECT_EQ(second.configs, first.configs);
  EXPECT_EQ(second.unrecoverable, first.unrecoverable);
  RecoveryPlan third = plan_recovery(net, second.configs, f);
  EXPECT_EQ(third.configs, first.configs);
}

TEST(Recovery, DegradedThroughputImproves) {
  // Recovery must not leave the degraded network worse-connected: all
  // servers reachable again means APL computable where it was not.
  FlatTreeNetwork net = make_net();
  auto configs = net.assign_configs(Mode::GlobalRandom);
  topo::Topology t = net.materialize(configs);
  auto weights = t.servers_per_switch();
  FailureSet f;
  for (NodeId v = 0; v < t.switch_count(); ++v)
    if (t.info(v).kind == topo::SwitchKind::Core && weights[v] > 0) {
      f.failed_switches.push_back(v);
      break;
    }
  auto recovered = plan_recovery(net, configs, f).configs;
  DegradedTopology d = apply_failures(net.materialize(recovered), f);
  EXPECT_TRUE(d.stranded_servers.empty());
  // Every surviving server pair still connected through the degraded net.
  auto dist = graph::bfs_distances(d.topo.graph(), d.topo.host(0));
  for (topo::ServerId s = 0; s < d.topo.server_count(); ++s)
    EXPECT_NE(dist[d.topo.host(s)], graph::kUnreachable);
}

}  // namespace
}  // namespace flattree::core
