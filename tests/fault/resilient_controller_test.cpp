#include "fault/resilient_controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/converter.hpp"
#include "fault/fault_check.hpp"
#include "fault/scenario.hpp"
#include "obs/metrics.hpp"

namespace flattree::fault {
namespace {

using core::ConverterConfig;
using core::Mode;

core::FlatTreeConfig make_cfg(std::uint32_t k = 4) {
  core::FlatTreeConfig cfg;
  cfg.k = k;
  return cfg;
}

FaultEvent ev(double t, FaultKind kind, std::uint32_t a, std::uint32_t b = 0) {
  FaultEvent e;
  e.time = t;
  e.kind = kind;
  e.a = a;
  e.b = b;
  return e;
}

void expect_valid(const ResilientController& ctl, const char* where) {
  EXPECT_EQ(core::validate_assignment(ctl.network().converters(), ctl.current_configs()),
            "")
      << where;
  check::Report r = ctl.self_check();
  EXPECT_TRUE(r.ok()) << where << ": " << r.to_string();
}

TEST(ResilientController, ConvertsCleanlyWithoutFaults) {
  ResilientController ctl(make_cfg());
  // With no faults the fault-aware target is exactly the mode assignment.
  std::vector<Mode> goal(ctl.network().params().pods(), Mode::GlobalRandom);
  EXPECT_EQ(ctl.fault_aware_target(goal), ctl.network().assign_configs(goal));

  ctl.begin_conversion(Mode::GlobalRandom);
  EXPECT_TRUE(ctl.conversion_in_flight());
  // Micro-transaction granularity: the assignment is valid at *every*
  // intermediate boundary, not just at the end.
  while (ctl.conversion_in_flight()) {
    ASSERT_EQ(ctl.advance(1), 1u);
    expect_valid(ctl, "mid-conversion");
  }
  EXPECT_EQ(ctl.current_configs(), ctl.network().assign_configs(Mode::GlobalRandom));
  EXPECT_EQ(ctl.pod_modes(), goal);
}

// Pass 1 already degrades pass 0's choice, so its stranded count is
// reused: two passes plus the final candidate make 3 rebuilds per call.
TEST(ResilientController, FaultAwareTargetDegradesThreeTimesPerCall) {
  ResilientController ctl(make_cfg());
  ctl.on_event(ev(1.0, FaultKind::SwitchDown, ctl.network().core_switch(0)));
  std::vector<Mode> goal(ctl.network().params().pods(), Mode::GlobalRandom);

  bool before = obs::enabled();
  obs::set_enabled(true);
  obs::reset_metrics();
  for (int call = 0; call < 2; ++call) ctl.fault_aware_target(goal);
  obs::MetricsSnapshot snap = obs::snapshot_metrics();
  obs::set_enabled(before);
  std::uint64_t rebuilds = 0;
  for (const auto& [name, value] : snap.counters)
    if (name == "fault.degrade.rebuilds") rebuilds = value;
  EXPECT_EQ(rebuilds, 6u);
}

TEST(ResilientController, RejectsTimeRegressionsAndDoubleConversions) {
  ResilientController ctl(make_cfg());
  ctl.on_event(ev(5.0, FaultKind::SwitchDown, 0));
  EXPECT_THROW(ctl.on_event(ev(4.0, FaultKind::SwitchUp, 0)), std::invalid_argument);
  ctl.begin_conversion(Mode::GlobalRandom);
  EXPECT_THROW(ctl.begin_conversion(Mode::LocalRandom), std::logic_error);
}

// Link-granularity degradation while idle: cutting every link of a *live*
// edge switch must re-home its tapped servers onto the aggregation switch
// (a live switch with a dead uplink is no home), and the repairs must roll
// the configuration forward to the clean Clos assignment again.
TEST(ResilientController, IsolatedLiveEdgeRehomesAndRepairsRollForward) {
  ResilientController ctl(make_cfg());
  const core::FlatTreeNetwork& net = ctl.network();
  NodeId edge0 = net.edge_switch(0, 0);
  topo::Topology clos = ctl.topology();

  std::vector<std::pair<NodeId, NodeId>> cut;
  const graph::Graph& g = clos.graph();
  for (graph::LinkId l = 0; l < g.link_count(); ++l)
    if (g.link(l).a == edge0 || g.link(l).b == edge0)
      cut.emplace_back(g.link(l).a, g.link(l).b);
  ASSERT_FALSE(cut.empty());

  double t = 1.0;
  for (auto [a, b] : cut) ctl.on_event(ev(t++, FaultKind::LinkDown, a, b));
  EXPECT_FALSE(ctl.fault_state().switch_down(edge0));
  expect_valid(ctl, "edge isolated");

  // Every converter tapping edge0 was re-homed to its aggregation switch.
  std::size_t rehomed = 0;
  for (std::uint32_t i = 0; i < net.converters().size(); ++i)
    if (net.converters()[i].edge == edge0) {
      EXPECT_EQ(ctl.current_configs()[i], ConverterConfig::Local);
      ++rehomed;
    }
  EXPECT_GT(rehomed, 0u);
  // Only the hard-wired (converter-less) servers of edge0 stay stranded.
  for (topo::ServerId s : ctl.stranded_servers())
    EXPECT_EQ(clos.host(s), edge0);

  for (auto [a, b] : cut) ctl.on_event(ev(t++, FaultKind::LinkUp, a, b));
  EXPECT_TRUE(ctl.fault_state().clean());
  EXPECT_EQ(ctl.current_configs(), net.assign_configs(Mode::Clos));
  EXPECT_TRUE(ctl.stranded_servers().empty());
  expect_valid(ctl, "after repair");
}

// A fault landing mid-reconfiguration: the applied prefix stays recorded,
// the controller replans from the live partial state, and validity holds
// at every step in between.
TEST(ResilientController, MidFlightSwitchFailureReplans) {
  ResilientController ctl(make_cfg());
  const core::FlatTreeNetwork& net = ctl.network();
  ctl.begin_conversion(Mode::GlobalRandom);
  ASSERT_GT(ctl.pending_micro_txs(), 4u);
  ctl.advance(2);  // partial prefix applied
  expect_valid(ctl, "prefix applied");

  // Fail a core switch that some pending side/cross transaction targets.
  NodeId victim = graph::kInvalidNode;
  auto target = net.assign_configs(Mode::GlobalRandom);
  for (std::uint32_t i = 0; i < net.converters().size(); ++i)
    if ((target[i] == ConverterConfig::Side || target[i] == ConverterConfig::Cross) &&
        ctl.current_configs()[i] != target[i]) {
      victim = net.converters()[i].core;
      break;
    }
  ASSERT_NE(victim, graph::kInvalidNode);

  EventOutcome out = ctl.on_event(ev(1.0, FaultKind::SwitchDown, victim));
  EXPECT_TRUE(out.changed);
  EXPECT_GT(out.replans, 0u);
  expect_valid(ctl, "after mid-flight failure");

  ctl.run_to_completion();
  EXPECT_FALSE(ctl.conversion_in_flight());
  expect_valid(ctl, "completed around the fault");
  // No converter may home its server on the dead switch: the replanned
  // configuration routed around it.
  for (std::uint32_t i = 0; i < net.converters().size(); ++i) {
    const core::Converter& c = net.converters()[i];
    ConverterConfig cc = ctl.current_configs()[i];
    NodeId home = cc == ConverterConfig::Default  ? c.edge
                  : cc == ConverterConfig::Local ? c.agg
                                                 : c.core;
    EXPECT_NE(home, victim) << "converter " << i;
  }
}

// A stuck converter is physically immovable: conversions and recovery must
// leave it in place (and its pair partner consistent) until it is freed.
TEST(ResilientController, StuckConverterFreezesItsConfiguration) {
  ResilientController ctl(make_cfg());
  const core::FlatTreeNetwork& net = ctl.network();
  // Pick a converter that global-random wants in a paired state.
  auto target = net.assign_configs(Mode::GlobalRandom);
  std::uint32_t idx = ~0u;
  for (std::uint32_t i = 0; i < net.converters().size(); ++i)
    if (target[i] == ConverterConfig::Side) {
      idx = i;
      break;
    }
  ASSERT_NE(idx, ~0u);

  ctl.on_event(ev(1.0, FaultKind::ConverterStuck, idx));
  ctl.begin_conversion(Mode::GlobalRandom);
  ctl.run_to_completion();
  EXPECT_FALSE(ctl.conversion_in_flight());
  // Frozen at the boot (Default) configuration; the rest converted.
  EXPECT_EQ(ctl.current_configs()[idx], ConverterConfig::Default);
  EXPECT_NE(ctl.current_configs(), net.assign_configs(Mode::GlobalRandom));
  expect_valid(ctl, "converted around the stuck converter");

  // Freeing it lets the next recovery pass finish the conversion.
  ctl.on_event(ev(2.0, FaultKind::ConverterFreed, idx));
  EXPECT_EQ(ctl.current_configs(), net.assign_configs(Mode::GlobalRandom));
  expect_valid(ctl, "after freeing");
}

// Replan budget exhaustion: the conversion aborts, rolls back to the
// pre-plan configuration, parks behind an event-count backoff, and retries
// once the backoff drains.
TEST(ResilientController, AbortRollsBackAndRetriesAfterBackoff) {
  ResilientOptions opt;
  opt.max_replans = 0;  // first blocked transaction aborts immediately
  opt.backoff_events = 2;
  ResilientController ctl(make_cfg(), opt);
  const core::FlatTreeNetwork& net = ctl.network();
  std::vector<ConverterConfig> boot = ctl.current_configs();

  ctl.begin_conversion(Mode::GlobalRandom);
  // Fail a core some pending transaction needs: with a zero replan budget
  // the conversion must abort and roll back.
  auto target = net.assign_configs(Mode::GlobalRandom);
  std::uint32_t idx = ~0u;
  for (std::uint32_t i = 0; i < net.converters().size(); ++i)
    if (target[i] == ConverterConfig::Side) {
      idx = i;
      break;
    }
  ASSERT_NE(idx, ~0u);
  NodeId victim = net.converters()[idx].core;
  EventOutcome out = ctl.on_event(ev(1.0, FaultKind::SwitchDown, victim));
  EXPECT_TRUE(out.rolled_back);
  EXPECT_FALSE(ctl.conversion_in_flight());
  expect_valid(ctl, "after rollback");
  // Rollback returned to the boot configs, then the recovery pass re-homed
  // around the dead core — which homes nothing in Clos, so configs match.
  EXPECT_EQ(ctl.current_configs(), boot);

  // Two unrelated events drain the backoff; the second one relaunches.
  EventOutcome d1 = ctl.on_event(ev(2.0, FaultKind::SwitchDown, victim == 0 ? 1u : 0u));
  EXPECT_TRUE(d1.deferred);
  EXPECT_FALSE(ctl.conversion_in_flight());
  EventOutcome d2 = ctl.on_event(ev(3.0, FaultKind::SwitchUp, victim == 0 ? 1u : 0u));
  EXPECT_TRUE(d2.deferred);
  EXPECT_TRUE(ctl.conversion_in_flight());  // retry launched after backoff
  ctl.run_to_completion();
  expect_valid(ctl, "retried conversion");
  // The dead core is still avoided: its side/cross states became standalone.
  EXPECT_EQ(ctl.current_configs()[idx], ConverterConfig::Local);
}

// The controller is a pure function of the event sequence: two instances
// fed the same trace hold identical configuration histories.
TEST(ResilientController, IdenticalTracesGiveIdenticalHistories) {
  core::FlatTreeConfig cfg = make_cfg();
  core::FlatTreeNetwork net(cfg);
  topo::Topology clos = net.build(Mode::Clos);
  ScenarioParams p;
  p.duration = 30.0;
  p.seed = 21;
  p.switches = {80.0, 4.0};
  p.link = {100.0, 3.0};
  p.converter = {120.0, 5.0};
  p.pod_power = {300.0, 4.0};
  p.flap_probability = 0.3;
  Scenario sc = generate_scenario(clos, p, net.converters().size(), net.params().pods());
  ASSERT_FALSE(sc.events.empty());

  ResilientController a(cfg), b(cfg);
  a.begin_conversion(Mode::GlobalRandom);
  b.begin_conversion(Mode::GlobalRandom);
  for (const FaultEvent& e : sc.events) {
    a.on_event(e);
    a.advance(2);
    b.on_event(e);
    b.advance(2);
    ASSERT_EQ(a.current_configs(), b.current_configs()) << "t=" << e.time;
  }
}

// The tentpole acceptance bar in miniature: a dense random trace with every
// fault class enabled lands between the micro-transactions of an in-flight
// conversion, and the full validity battery passes after every event.
TEST(ResilientController, RandomTraceHoldsInvariantsAfterEveryEvent) {
  core::FlatTreeConfig cfg = make_cfg();
  core::FlatTreeNetwork net(cfg);
  topo::Topology clos = net.build(Mode::Clos);
  ScenarioParams p;
  p.duration = 40.0;
  p.seed = 9;
  p.switches = {60.0, 4.0};
  p.link = {70.0, 3.0};
  p.converter = {80.0, 5.0};
  p.pod_power = {250.0, 4.0};
  p.flap_probability = 0.4;
  Scenario sc = generate_scenario(clos, p, net.converters().size(), net.params().pods());
  ASSERT_GT(sc.events.size(), 20u);

  ResilientController ctl(cfg);
  ctl.begin_conversion(Mode::GlobalRandom);
  for (const FaultEvent& e : sc.events) {
    ctl.on_event(e);
    ctl.advance(2);
    ASSERT_EQ(core::validate_assignment(net.converters(), ctl.current_configs()), "")
        << "t=" << e.time;
    check::Report r = ctl.self_check();
    ASSERT_TRUE(r.ok()) << "t=" << e.time << ": " << r.to_string();
  }
  // Every generated failure carries its repair: the plant unwinds clean
  // and the conservation certificate holds.
  ctl.run_to_completion();
  EXPECT_TRUE(ctl.fault_state().clean());
  EXPECT_TRUE(check_conserved(ctl.fault_state()).ok());
  expect_valid(ctl, "final");
}

}  // namespace
}  // namespace flattree::fault
