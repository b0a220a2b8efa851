#include "check/invariants.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "check/report.hpp"
#include "core/flat_tree.hpp"
#include "core/recovery.hpp"
#include "graph/adjacent.hpp"
#include "obs/metrics.hpp"
#include "topo/fat_tree.hpp"
#include "topo/random_graph.hpp"
#include "topo/two_stage.hpp"
#include "util/rng.hpp"

namespace flattree::check {
namespace {

using topo::LinkOrigin;
using topo::SwitchKind;

/// A 3-switch path a-b-c with one server per switch.
topo::Topology tiny() {
  topo::Topology t;
  topo::NodeId a = t.add_switch(SwitchKind::Edge, 0, 0, 4);
  topo::NodeId b = t.add_switch(SwitchKind::Aggregation, 0, 0, 4);
  topo::NodeId c = t.add_switch(SwitchKind::Edge, 0, 1, 4);
  t.add_link(a, b, LinkOrigin::ClosEdgeAgg);
  t.add_link(b, c, LinkOrigin::ClosEdgeAgg);
  t.add_server(a);
  t.add_server(c);
  return t;
}

bool has_code(const Report& r, const std::string& code) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [&](const Violation& v) { return v.code == code; });
}

TEST(Invariants, CleanTopologyPasses) {
  Report r = validate(tiny());
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_GT(r.checks_run, 0u);
}

TEST(Invariants, RealBuildersPass) {
  util::Rng rng(7);
  EXPECT_TRUE(validate(topo::build_fat_tree(8).topo).ok());
  // Jellyfish-like builds promise simple graphs.
  const topo::Topology jellyfish = topo::build_jellyfish_like_fat_tree(8, rng);
  EXPECT_TRUE(validate(jellyfish).ok());
  EXPECT_FALSE(graph::has_parallel_links(jellyfish.graph()));
  EXPECT_TRUE(validate(topo::build_two_stage_random_graph(8, rng)).ok());
  core::FlatTreeConfig cfg;
  cfg.k = 8;
  core::FlatTreeNetwork net(cfg);
  EXPECT_TRUE(validate(net.build(core::Mode::Clos)).ok());
  EXPECT_TRUE(validate(net.build(core::Mode::GlobalRandom)).ok());
  EXPECT_TRUE(validate(net.build(core::Mode::LocalRandom)).ok());
}

TEST(Invariants, PortBudgetOverflowDetected) {
  topo::Topology t;
  topo::NodeId a = t.add_switch(SwitchKind::Edge, 0, 0, /*ports=*/2);
  topo::NodeId b = t.add_switch(SwitchKind::Edge, 0, 1, /*ports=*/8);
  t.add_link(a, b, LinkOrigin::Random);
  t.add_link(a, b, LinkOrigin::Random);
  t.add_server(a);  // third port on a 2-port switch
  Report r = validate(t);
  EXPECT_TRUE(has_code(r, "topo.port_budget")) << r.to_string();
}

TEST(Invariants, ParallelLinksAreLegal) {
  topo::Topology t;
  topo::NodeId a = t.add_switch(SwitchKind::Edge, 0, 0, 4);
  topo::NodeId b = t.add_switch(SwitchKind::Edge, 0, 1, 4);
  t.add_link(a, b, LinkOrigin::Random);
  t.add_link(a, b, LinkOrigin::Random);
  EXPECT_TRUE(validate(t).ok());  // every topology is a multigraph
}

TEST(Invariants, StrandedServerDetectedAndDeclarable) {
  topo::Topology t;
  topo::NodeId a = t.add_switch(SwitchKind::Edge, 0, 0, 4);
  topo::NodeId b = t.add_switch(SwitchKind::Edge, 0, 1, 4);
  topo::NodeId dead = t.add_switch(SwitchKind::Edge, 0, 2, 4);
  t.add_link(a, b, LinkOrigin::Random);
  topo::ServerId s = t.add_server(dead);
  TopologyCheckOptions opts;
  opts.allow_isolated_switches = true;  // isolate the connectivity question
  Report r = validate(t, opts);
  EXPECT_TRUE(has_code(r, "topo.stranded_server")) << r.to_string();
  opts.declared_stranded = {s};
  EXPECT_TRUE(validate(t, opts).ok());
}

TEST(Invariants, DisconnectedGraphDetected) {
  topo::Topology t;
  topo::NodeId a = t.add_switch(SwitchKind::Edge, 0, 0, 4);
  topo::NodeId b = t.add_switch(SwitchKind::Edge, 0, 1, 4);
  topo::NodeId c = t.add_switch(SwitchKind::Edge, 0, 2, 4);
  topo::NodeId d = t.add_switch(SwitchKind::Edge, 0, 3, 4);
  t.add_link(a, b, LinkOrigin::Random);
  t.add_link(c, d, LinkOrigin::Random);
  Report r = validate(t);
  EXPECT_TRUE(has_code(r, "topo.connectivity")) << r.to_string();
  // Two live components stay disconnected even with isolated switches
  // exempted.
  TopologyCheckOptions opts;
  opts.allow_isolated_switches = true;
  EXPECT_TRUE(has_code(validate(t, opts), "topo.connectivity"));
}

TEST(Invariants, IsolatedSwitchExemptionMatchesDegradedTopology) {
  // A degraded build: failed switches keep their ids as isolated nodes and
  // their servers are declared stranded — that must validate cleanly.
  core::FlatTreeConfig cfg;
  cfg.k = 8;
  core::FlatTreeNetwork net(cfg);
  auto configs = net.assign_configs(core::Mode::GlobalRandom);
  topo::Topology healthy = net.materialize(configs);
  core::FailureSet f;
  auto weights = healthy.servers_per_switch();
  for (topo::NodeId v = 0; v < healthy.switch_count(); ++v)
    if (healthy.info(v).kind == SwitchKind::Core && weights[v] > 0) {
      f.failed_switches.push_back(v);
      break;
    }
  ASSERT_FALSE(f.failed_switches.empty());
  core::DegradedTopology d = core::apply_failures(healthy, f);

  Report strict = validate(d.topo);
  EXPECT_TRUE(has_code(strict, "topo.connectivity"));  // dead node isolated
  TopologyCheckOptions opts;
  opts.allow_isolated_switches = true;
  opts.declared_stranded = d.stranded_servers;
  Report relaxed = validate(d.topo, opts);
  EXPECT_TRUE(relaxed.ok()) << relaxed.to_string();
}

TEST(Parity, ConversionsShareEquipment) {
  core::FlatTreeConfig cfg;
  cfg.k = 8;
  core::FlatTreeNetwork net(cfg);
  topo::Topology clos = net.build(core::Mode::Clos);
  topo::Topology global = net.build(core::Mode::GlobalRandom);
  topo::Topology local = net.build(core::Mode::LocalRandom);
  EXPECT_TRUE(equipment_parity(clos, global).ok());
  EXPECT_TRUE(equipment_parity(clos, local).ok());
  EXPECT_TRUE(equipment_parity(topo::build_fat_tree(8).topo, clos).ok());
}

TEST(Parity, DetectsEveryMismatch) {
  topo::Topology a = tiny();
  // Switch count.
  {
    topo::Topology b = tiny();
    b.add_switch(SwitchKind::Edge, 1, 0, 4);
    EXPECT_TRUE(has_code(equipment_parity(a, b), "parity.switches"));
  }
  // Kind counts (same total).
  {
    topo::Topology b;
    b.add_switch(SwitchKind::Edge, 0, 0, 4);
    b.add_switch(SwitchKind::Core, 0, 0, 4);
    b.add_switch(SwitchKind::Edge, 0, 1, 4);
    b.add_link(0, 1, LinkOrigin::ClosEdgeAgg);
    b.add_link(1, 2, LinkOrigin::ClosEdgeAgg);
    b.add_server(0);
    b.add_server(2);
    EXPECT_TRUE(has_code(equipment_parity(a, b), "parity.kinds"));
  }
  // Port inventory (same kinds).
  {
    topo::Topology b;
    b.add_switch(SwitchKind::Edge, 0, 0, 8);
    b.add_switch(SwitchKind::Aggregation, 0, 0, 4);
    b.add_switch(SwitchKind::Edge, 0, 1, 4);
    b.add_link(0, 1, LinkOrigin::ClosEdgeAgg);
    b.add_link(1, 2, LinkOrigin::ClosEdgeAgg);
    b.add_server(0);
    b.add_server(2);
    EXPECT_TRUE(has_code(equipment_parity(a, b), "parity.ports"));
  }
  // Servers and links.
  {
    topo::Topology b = tiny();
    b.add_server(0);
    EXPECT_TRUE(has_code(equipment_parity(a, b), "parity.servers"));
  }
  {
    topo::Topology b = tiny();
    b.add_link(0, 2, LinkOrigin::Random);
    EXPECT_TRUE(has_code(equipment_parity(a, b), "parity.links"));
    EXPECT_FALSE(has_code(equipment_parity(a, b, /*require_equal_links=*/false),
                          "parity.links"));
  }
}

TEST(Report, ViolationsBumpObsCounter) {
  obs::set_enabled(true);
  obs::reset_metrics();
  topo::Topology t;
  t.add_switch(SwitchKind::Edge, 0, 0, 4);
  t.add_switch(SwitchKind::Edge, 0, 1, 4);
  t.add_switch(SwitchKind::Edge, 0, 2, 4);
  t.add_link(0, 1, LinkOrigin::Random);
  validate(t);  // switch 2 is isolated: connectivity violation
  auto snap = obs::snapshot_metrics();
  std::uint64_t violations = 0, runs = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "check.violations") violations = value;
    if (name == "check.runs") runs = value;
  }
  EXPECT_GE(violations, 1u);
  EXPECT_GE(runs, 1u);
  obs::reset_metrics();
  obs::set_enabled(false);
}

TEST(Report, MergeAndToString) {
  Report a, b;
  a.add("x.one", "first");
  a.note_check(3);
  b.add("x.two", "second");
  b.note_check(2);
  a.merge(b);
  EXPECT_EQ(a.violations.size(), 2u);
  EXPECT_EQ(a.checks_run, 5u);
  std::string s = a.to_string();
  EXPECT_NE(s.find("x.one"), std::string::npos);
  EXPECT_NE(s.find("second"), std::string::npos);
  EXPECT_EQ(Report{}.to_string(), "");
}

}  // namespace
}  // namespace flattree::check
