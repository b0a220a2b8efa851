#include "check/routing_check.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "check/report.hpp"
#include "check/te_check.hpp"
#include "core/flat_tree.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "routing/ksp_routing.hpp"
#include "te/wcmp.hpp"

namespace flattree::check {
namespace {

using topo::LinkOrigin;
using topo::SwitchKind;

bool has_code(const Report& r, const std::string& code) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [&](const Violation& v) { return v.code == code; });
}

/// Ring of 5 switches plus a chord, one server each.
topo::Topology ring() {
  topo::Topology t;
  for (std::uint32_t i = 0; i < 5; ++i) {
    t.add_switch(SwitchKind::Edge, 0, i, 6);
    t.add_server(i);
  }
  for (topo::NodeId v = 0; v < 5; ++v)
    t.add_link(v, (v + 1) % 5, LinkOrigin::Random);
  t.add_link(0, 2, LinkOrigin::Random);
  return t;
}

TEST(RoutingCheck, YenPathsPass) {
  topo::Topology t = ring();
  auto paths = graph::yen_ksp_hops(t.graph(), 0, 3, 4);
  ASSERT_FALSE(paths.empty());
  Report r = validate_paths(t.graph(), 0, 3, paths);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(RoutingCheck, KspRoutingPathSetsPass) {
  core::FlatTreeConfig cfg;
  cfg.k = 6;
  core::FlatTreeNetwork net(cfg);
  topo::Topology t = net.build(core::Mode::GlobalRandom);
  routing::KspRouting ksp(t.graph(), 8);
  auto pairs = routing::all_server_pairs(t);
  for (std::size_t i = 0; i < pairs.size(); i += 31) {
    auto [src, dst] = pairs[i];
    Report r = validate_paths(t.graph(), src, dst, ksp.paths(src, dst));
    EXPECT_TRUE(r.ok()) << r.to_string();
  }
}

TEST(RoutingCheck, TamperedPathsDetected) {
  topo::Topology t = ring();
  auto paths = graph::yen_ksp_hops(t.graph(), 0, 3, 4);
  ASSERT_GE(paths.size(), 2u);

  auto wrong_endpoint = paths;
  wrong_endpoint[0].nodes.back() = 4;
  EXPECT_TRUE(has_code(validate_paths(t.graph(), 0, 3, wrong_endpoint),
                       "route.path_endpoints"));

  auto looped = paths;
  looped[0].nodes.insert(looped[0].nodes.begin() + 1, looped[0].nodes[0]);
  looped[0].links.push_back(looped[0].links[0]);
  Report r = validate_paths(t.graph(), 0, 3, looped);
  EXPECT_TRUE(has_code(r, "route.path_loop") || has_code(r, "route.path_links"))
      << r.to_string();

  auto unsorted = paths;
  std::swap(unsorted.front(), unsorted.back());
  EXPECT_TRUE(
      has_code(validate_paths(t.graph(), 0, 3, unsorted), "route.path_order"));

  auto duplicated = paths;
  duplicated.push_back(duplicated[0]);
  EXPECT_TRUE(
      has_code(validate_paths(t.graph(), 0, 3, duplicated), "route.path_duplicate"));

  auto bad_link = paths;
  bad_link[0].links[0] = (bad_link[0].links[0] + 1) % t.link_count();
  EXPECT_TRUE(has_code(validate_paths(t.graph(), 0, 3, bad_link), "route.path_links"));
}

TEST(RoutingCheck, EcmpFibMakesStrictProgress) {
  core::FlatTreeConfig cfg;
  cfg.k = 6;
  core::FlatTreeNetwork net(cfg);
  topo::Topology t = net.build(core::Mode::Clos);
  routing::EcmpRouting ecmp(t.graph());
  auto pairs = routing::all_server_pairs(t);
  te::WeightedFib fib = te::compile_fib(t, ecmp, pairs);
  Report r = validate_weighted_fib(t, fib, pairs);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_GE(r.checks_run, pairs.size());
}

TEST(RoutingCheck, FibViolationsDetected) {
  topo::Topology t = ring();
  routing::EcmpRouting ecmp(t.graph());
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs{{0, 3}};
  te::WeightedFib fib = te::compile_fib(t, ecmp, pairs);

  // A backwards rule: at node 3's shortest-path predecessor, install the
  // link pointing away from 3.
  te::WeightedFib bad = fib;
  bad.add_route(4, 3, /*link 4 joins (4, 0)*/ 4, 1);
  Report r = validate_weighted_fib(t, bad, pairs);
  EXPECT_TRUE(has_code(r, "te.wfib.progress")) << r.to_string();

  // Missing rules: an empty FIB has no next hop at the source.
  te::WeightedFib empty = te::WeightedFib::equal_cost(t.switch_count());
  EXPECT_TRUE(has_code(validate_weighted_fib(t, empty, pairs), "te.wfib.blackhole"));

  // Disconnected pair: an isolated extra switch.
  topo::Topology island = ring();
  topo::NodeId lone = island.add_switch(SwitchKind::Edge, 1, 0, 2);
  te::WeightedFib fib2 = te::WeightedFib::equal_cost(island.switch_count());
  EXPECT_TRUE(has_code(
      validate_weighted_fib(island, fib2, {{0, lone}}), "te.wfib.disconnected"));
}

}  // namespace
}  // namespace flattree::check
