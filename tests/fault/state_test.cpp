#include "fault/state.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/flat_tree.hpp"
#include "fault/degrade.hpp"
#include "fault/fault_check.hpp"
#include "fault/scenario.hpp"
#include "graph/bfs.hpp"

namespace flattree::fault {
namespace {

core::FlatTreeNetwork make_net(std::uint32_t k = 4) {
  core::FlatTreeConfig cfg;
  cfg.k = k;
  return core::FlatTreeNetwork(cfg);
}

FaultEvent ev(double t, FaultKind kind, std::uint32_t a, std::uint32_t b = 0) {
  FaultEvent e;
  e.time = t;
  e.kind = kind;
  e.a = a;
  e.b = b;
  return e;
}

// Down *counts*, not booleans: overlapping failures (a pod power cut plus
// an individual switch fault inside it) unwind only at the last repair.
TEST(FaultState, OverlappingFailuresUnwindExactly) {
  FaultState s(8, 4);
  EXPECT_TRUE(s.apply(ev(1.0, FaultKind::SwitchDown, 3)));   // power domain
  EXPECT_FALSE(s.apply(ev(2.0, FaultKind::SwitchDown, 3)));  // individual fault
  EXPECT_TRUE(s.switch_down(3));
  EXPECT_EQ(s.down_switch_count(), 1u);
  EXPECT_FALSE(s.apply(ev(3.0, FaultKind::SwitchUp, 3)));  // power restored
  EXPECT_TRUE(s.switch_down(3));                           // still individually down
  EXPECT_TRUE(s.apply(ev(4.0, FaultKind::SwitchUp, 3)));
  EXPECT_FALSE(s.switch_down(3));
  EXPECT_TRUE(s.clean());
  EXPECT_TRUE(check_conserved(s).ok());
}

TEST(FaultState, LinkFaultsKeyOnNormalizedPairs) {
  FaultState s(8, 0);
  EXPECT_TRUE(s.apply(ev(1.0, FaultKind::LinkDown, 5, 2)));
  EXPECT_TRUE(s.pair_down(2, 5));
  EXPECT_TRUE(s.pair_down(5, 2));  // orientation-free
  EXPECT_FALSE(s.apply(ev(2.0, FaultKind::LinkDown, 2, 5)));
  EXPECT_FALSE(s.apply(ev(3.0, FaultKind::LinkUp, 5, 2)));
  EXPECT_TRUE(s.apply(ev(4.0, FaultKind::LinkUp, 2, 5)));
  EXPECT_FALSE(s.pair_down(2, 5));
  EXPECT_TRUE(check_conserved(s).ok());
}

TEST(FaultState, RejectsOutOfRangeAndUnmatchedRepairs) {
  FaultState s(4, 2);
  EXPECT_THROW(s.apply(ev(1.0, FaultKind::SwitchDown, 4)), std::invalid_argument);
  EXPECT_THROW(s.apply(ev(1.0, FaultKind::ConverterStuck, 2)), std::invalid_argument);
  EXPECT_THROW(s.apply(ev(1.0, FaultKind::SwitchUp, 0)), std::invalid_argument);
  EXPECT_THROW(s.apply(ev(1.0, FaultKind::LinkUp, 0, 1)), std::invalid_argument);
  EXPECT_THROW(s.apply(ev(1.0, FaultKind::ConverterFreed, 0)), std::invalid_argument);
}

// Along a flapping trace, degrade() drops exactly the links link_dead()
// names, the per-event rise/fall of that dead count (bench_chaos's "links
// cut/healed") balances, and a fully played trace restores the baseline.
TEST(Degrade, DeadLinksTrackATraceAndUnwind) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  ScenarioParams p;
  p.duration = 40.0;
  p.seed = 5;
  p.switches = {50.0, 4.0};
  p.link = {60.0, 3.0};
  p.pod_power = {150.0, 3.0};
  p.flap_probability = 0.5;
  Scenario sc = generate_scenario(clos, p, 0, net.params().pods());
  ASSERT_FALSE(sc.events.empty());

  FaultState state(net.params().total_switches(), 0);
  std::size_t dead = 0, cut = 0, healed = 0;
  for (const FaultEvent& e : sc.events) {
    if (!state.apply(e)) continue;
    std::size_t now = 0;
    for (const graph::Link& l : clos.graph().links()) now += link_dead(state, l.a, l.b);
    cut += now > dead ? now - dead : 0;
    healed += now < dead ? dead - now : 0;
    dead = now;
    DegradeResult d = degrade(clos, state);
    ASSERT_EQ(d.dropped_links, dead);
    ASSERT_EQ(d.topo.link_count() + dead, clos.link_count());
    for (const graph::Link& l : d.topo.graph().links())
      ASSERT_FALSE(link_dead(state, l.a, l.b));
  }
  EXPECT_TRUE(state.clean());
  EXPECT_GT(cut, 0u);
  EXPECT_EQ(cut, healed);
  DegradeResult d = degrade(clos, state);
  EXPECT_EQ(d.dropped_links, 0u);
  EXPECT_TRUE(d.stranded.empty());
  EXPECT_EQ(graph::bfs_distances(d.topo.graph(), 0), graph::bfs_distances(clos.graph(), 0));
}

// Link-granularity strandedness: a *live* host whose every link is dead
// still strands its servers.
TEST(Degrade, IsolatedLiveHostStrandsServers) {
  core::FlatTreeNetwork net = make_net();
  topo::Topology clos = net.build(core::Mode::Clos);
  // Pick a switch that hosts servers and cut all its links.
  NodeId host = clos.host(0);
  FaultState state(net.params().total_switches(), 0);
  const graph::Graph& g = clos.graph();
  double t = 1.0;
  for (graph::LinkId l = 0; l < g.link_count(); ++l) {
    if (g.link(l).a != host && g.link(l).b != host) continue;
    state.apply(ev(t++, FaultKind::LinkDown, g.link(l).a, g.link(l).b));
  }
  EXPECT_FALSE(state.switch_down(host));
  DegradeResult d = degrade(clos, state);
  EXPECT_FALSE(d.stranded.empty());
  for (ServerId s : d.stranded) EXPECT_EQ(clos.host(s), host);
}

TEST(FaultState, StuckConvertersAreTracked) {
  FaultState s(4, 3);
  EXPECT_TRUE(s.apply(ev(1.0, FaultKind::ConverterStuck, 1)));
  EXPECT_TRUE(s.converter_stuck(1));
  EXPECT_FALSE(s.converter_stuck(0));
  EXPECT_EQ(s.stuck_converter_count(), 1u);
  EXPECT_TRUE(s.apply(ev(2.0, FaultKind::ConverterFreed, 1)));
  EXPECT_TRUE(s.clean());
}

}  // namespace
}  // namespace flattree::fault
