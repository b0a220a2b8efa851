#include "te/weighted_fib.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "check/te_check.hpp"
#include "graph/bfs.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "te/long_line.hpp"
#include "te/wcmp.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace flattree::te {
namespace {

bool has_code(const check::Report& r, const std::string& code) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [&](const check::Violation& v) { return v.code == code; });
}

/// 0 -- 1 -- 2 line with servers at the ends (same shape as the
/// equal-cost table tests use).
topo::Topology line3() {
  topo::Topology t;
  for (int i = 0; i < 3; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  t.add_link(0, 1, topo::LinkOrigin::Random);
  t.add_link(1, 2, topo::LinkOrigin::Random);
  t.add_server(0);
  t.add_server(2);
  return t;
}

/// Diamond 0 -> {1, 2} -> 3 with servers at 0 and 3 (two equal-cost paths).
topo::Topology diamond() {
  topo::Topology t;
  for (int i = 0; i < 4; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  t.add_link(0, 1, topo::LinkOrigin::Random);  // link 0
  t.add_link(0, 2, topo::LinkOrigin::Random);  // link 1
  t.add_link(1, 3, topo::LinkOrigin::Random);  // link 2
  t.add_link(2, 3, topo::LinkOrigin::Random);  // link 3
  t.add_server(0);
  t.add_server(3);
  return t;
}

TEST(WeightedFib, AddAccumulatesAndLooksUp) {
  WeightedFib fib(3);
  fib.add_route(0, 2, 0, 40);
  fib.add_route(0, 2, 0, 24);  // tops up the same rule
  fib.add_route(1, 2, 1, 64);
  ASSERT_EQ(fib.next_hops(0, 2).size(), 1u);
  EXPECT_EQ(fib.next_hops(0, 2)[0].weight, 64u);
  EXPECT_TRUE(fib.next_hops(2, 0).empty());
  EXPECT_EQ(fib.rule_count(), 2u);
  EXPECT_EQ(fib.entry_count(), 2u);
  EXPECT_EQ(fib.total_weight(), 128u);
  EXPECT_EQ(fib.weight_budget(), 64u);
}

TEST(WeightedFib, OnlyEqualCostTablesHaveNoBudget) {
  // Budget 0 is reserved for equal-cost tables, built only by equal_cost().
  EXPECT_EQ(WeightedFib(3).weight_budget(), kWeightBudget);
  EXPECT_FALSE(WeightedFib(3).is_equal_cost());
  EXPECT_TRUE(WeightedFib::equal_cost(3).is_equal_cost());
}

TEST(WeightedFib, DestinationsSortedPerSwitch) {
  WeightedFib fib(10);
  fib.add_route(0, 9, 0, 64);
  fib.add_route(0, 3, 0, 64);
  fib.add_route(0, 7, 0, 64);
  EXPECT_EQ(fib.destinations(0), (std::vector<NodeId>{3, 7, 9}));
  EXPECT_TRUE(fib.destinations(1).empty());

  // Ascending whatever the insertion order, repeats included.
  WeightedFib big(64);
  util::Rng rng(5);
  std::vector<NodeId> want;
  for (int i = 0; i < 40; ++i) {
    auto dst = static_cast<NodeId>(rng.index(64));
    big.add_route(7, dst, 0, 64);
    want.push_back(dst);
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  EXPECT_EQ(big.destinations(7), want);
  EXPECT_EQ(big.entry_count(), want.size());
}

TEST(WeightedFib, SelectDeterministicSkipsZeroAndThrowsOnMiss) {
  WeightedFib fib(3);
  fib.add_route(0, 2, 0, 0);   // zero-weight rule never selected
  fib.add_route(0, 2, 1, 64);
  for (std::uint64_t id = 0; id < 200; ++id) {
    EXPECT_EQ(fib.select(0, 2, id), 1u);
    EXPECT_EQ(fib.select(0, 2, id), fib.select(0, 2, id));
  }
  EXPECT_THROW(fib.select(1, 2, 0), std::runtime_error);
  WeightedFib zeros(3);
  zeros.add_route(0, 2, 0, 0);
  EXPECT_THROW(zeros.select(0, 2, 0), std::runtime_error);
}

TEST(WeightedFib, SelectTracksWeightsOverFlowSweep) {
  WeightedFib fib(4);
  fib.add_route(0, 3, 0, 48);  // 3:1 split
  fib.add_route(0, 3, 1, 16);
  std::map<graph::LinkId, int> hits;
  const int sweep = 20000;
  for (int id = 0; id < sweep; ++id)
    ++hits[fib.select(0, 3, static_cast<std::uint64_t>(id))];
  double heavy = static_cast<double>(hits[0]) / sweep;
  EXPECT_NEAR(heavy, 0.75, 0.02);  // mix64 is a good hash; 2% slack is ample
  EXPECT_NEAR(static_cast<double>(hits[1]) / sweep, 0.25, 0.02);
}

/// select()'s documented walk, computed by hand from the rule list.
graph::LinkId walk(const std::vector<WeightedHop>& hops, NodeId at, NodeId dst,
                   std::uint64_t flow) {
  std::uint64_t total = 0;
  for (const WeightedHop& hop : hops) total += hop.weight;
  std::uint64_t point =
      util::mix64(flow ^ ((static_cast<std::uint64_t>(at) << 32) | dst)) % total;
  for (const WeightedHop& hop : hops) {
    if (point < hop.weight) return hop.link;
    point -= hop.weight;
  }
  ADD_FAILURE() << "walk ran off the weight line";
  return hops.back().link;
}

TEST(WeightedFib, HopsStayInInstallationOrder) {
  WeightedFib fib(4);
  fib.add_route(0, 3, 9, 10);
  fib.add_route(0, 3, 2, 20);
  fib.add_route(0, 3, 5, 30);
  fib.add_route(0, 3, 2, 4);  // a top-up keeps the rule where it was
  const auto& hops = fib.next_hops(0, 3);
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].link, 9u);
  EXPECT_EQ(hops[1].link, 2u);
  EXPECT_EQ(hops[1].weight, 24u);
  EXPECT_EQ(hops[2].link, 5u);
}

TEST(WeightedFib, CachedWeightSumFollowsTopUpsAndZeroWeights) {
  WeightedFib fib(4);
  fib.add_route(1, 2, 0, 0);  // zero-weight only: nothing to select yet
  EXPECT_THROW(fib.select(1, 2, 0), std::runtime_error);
  fib.add_route(1, 2, 1, 0);
  EXPECT_THROW(fib.select(1, 2, 0), std::runtime_error);
  fib.add_route(1, 2, 1, 3);  // top-up of a zero-weight rule
  fib.add_route(1, 2, 2, 5);
  fib.add_route(1, 2, 0, 0);
  fib.add_route(1, 2, 2, 2);
  EXPECT_EQ(fib.total_weight(), 10u);
  const auto& hops = fib.next_hops(1, 2);
  for (std::uint64_t flow = 0; flow < 2000; ++flow) {
    graph::LinkId link = fib.select(1, 2, flow);
    ASSERT_EQ(link, walk(hops, 1, 2, flow)) << "flow " << flow;
    ASSERT_NE(link, 0u);  // zero-weight rule never chosen
  }
  // A top-up that wraps the 32-bit weight keeps the cached sum equal to
  // the stored weights.
  WeightedFib wrap(2);
  wrap.add_route(0, 1, 0, 0xffffffffu);
  wrap.add_route(0, 1, 0, 2);
  wrap.add_route(0, 1, 1, 1);
  EXPECT_EQ(wrap.next_hops(0, 1)[0].weight, 1u);
  EXPECT_EQ(wrap.total_weight(), 2u);
  for (std::uint64_t flow = 0; flow < 200; ++flow)
    ASSERT_EQ(wrap.select(0, 1, flow), walk(wrap.next_hops(0, 1), 0, 1, flow));
}

TEST(WeightedFib, MissingEntriesAndForeignSwitches) {
  WeightedFib fib(3);
  fib.add_route(0, 2, 0, 64);
  EXPECT_THROW(fib.select(0, 1, 0), std::runtime_error);  // no entry
  EXPECT_THROW(fib.select(0, 3, 0), std::runtime_error);  // not a switch
  EXPECT_TRUE(fib.next_hops(0, 3).empty());
  EXPECT_THROW(fib.next_hops(3, 2), std::out_of_range);
  EXPECT_THROW(fib.add_route(3, 2, 0, 1), std::out_of_range);
  EXPECT_THROW(fib.add_route(0, 3, 0, 1), std::out_of_range);
  EXPECT_THROW(fib.destinations(3), std::out_of_range);
  EXPECT_EQ(fib.rule_count(), 1u);
}

TEST(WeightedFib, SelectMatchesHandComputedWalk) {
  WeightedFib fib(8);
  fib.add_route(5, 6, 11, 7);
  fib.add_route(5, 6, 3, 1);
  fib.add_route(5, 6, 8, 56);
  WeightedFib ecmp = WeightedFib::equal_cost(8);
  for (graph::LinkId link : {4u, 1u, 9u}) ecmp.add_route(2, 7, link, 1);
  const std::vector<graph::LinkId> ecmp_hops = {4, 1, 9};
  for (std::uint64_t flow = 0; flow < 5000; ++flow) {
    ASSERT_EQ(fib.select(5, 6, flow), walk(fib.next_hops(5, 6), 5, 6, flow));
    // On an equal-cost entry the walk is hops[hash % n].
    const std::uint64_t h = util::mix64(flow ^ ((std::uint64_t{2} << 32) | 7));
    ASSERT_EQ(ecmp.select(2, 7, flow), ecmp_hops[h % 3]);
  }
  // Pinned points on the weight line [11:7 | 3:1 | 8:56], worked out from
  // splitmix64 by hand, so a change to mix64 or the key layout shows here:
  // flow 0 lands at 59, flow 8 at 1 and flow 111 at 7.
  EXPECT_EQ(fib.select(5, 6, 0), 8u);
  EXPECT_EQ(fib.select(5, 6, 8), 11u);
  EXPECT_EQ(fib.select(5, 6, 111), 3u);
}

TEST(VerifyWeightedFib, CompiledFatTreePasses) {
  topo::FatTree ft = topo::build_fat_tree(4);
  routing::EcmpRouting ecmp(ft.topo.graph());
  auto pairs = routing::all_server_pairs(ft.topo);
  WeightedFib fib = compile_wcmp_paths(ft.topo, ecmp, pairs);
  // Every hop must decrease the BFS distance (te.wfib.progress), so no
  // walk is longer than the fat-tree switch diameter, 4.
  check::Report r = check::validate_weighted_fib(ft.topo, fib, pairs);
  EXPECT_TRUE(r.ok()) << r.to_string();
  for (graph::NodeId v = 0; v < ft.topo.switch_count(); ++v)
    for (std::uint32_t d : graph::bfs_distances(ft.topo.graph(), v)) EXPECT_LE(d, 4u);
  EXPECT_GE(r.checks_run, pairs.size());
}

TEST(VerifyWeightedFib, DetectsBlackhole) {
  topo::Topology t = line3();
  WeightedFib fib(3);
  fib.add_route(0, 2, 0, 64);  // installed at 0 but missing at 1
  check::Report r = check::validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.blackhole")) << r.to_string();
}

TEST(VerifyWeightedFib, DetectsZeroWeightRule) {
  topo::Topology t = line3();
  WeightedFib fib(3);
  fib.add_route(0, 2, 0, 64);
  fib.add_route(1, 2, 1, 64);
  fib.add_route(1, 2, 0, 0);  // corrupt: should have been pruned
  check::Report r = check::validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.zero_weight")) << r.to_string();
}

TEST(VerifyWeightedFib, DetectsWeightConservationViolation) {
  topo::Topology t = diamond();
  WeightedFib fib(4);
  fib.add_route(0, 3, 0, 32);
  fib.add_route(0, 3, 1, 31);  // sums to 63, budget is 64
  fib.add_route(1, 3, 2, 64);
  fib.add_route(2, 3, 3, 64);
  check::Report r = check::validate_weighted_fib(t, fib, {{0, 3}});
  EXPECT_TRUE(has_code(r, "te.wfib.weight_sum")) << r.to_string();
}

TEST(VerifyWeightedFib, DetectsLoop) {
  topo::Topology t = line3();
  WeightedFib fib(3);
  fib.add_route(0, 2, 0, 64);
  fib.add_route(1, 2, 0, 64);  // bounces back to 0
  check::Report r = check::validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.loop")) << r.to_string();
}

TEST(VerifyWeightedFib, HopLimitEnforced) {
  // A walk of check::kFibHopLimit hops passes; one hop more is flagged.
  const std::uint32_t relaxed_n = check::kFibHopLimit + 1;
  check::Report relaxed = check::validate_weighted_fib(
      long_line(relaxed_n), long_line_fib(relaxed_n), {{0, relaxed_n - 1}});
  EXPECT_TRUE(relaxed.ok()) << relaxed.to_string();
  const std::uint32_t tight_n = check::kFibHopLimit + 2;
  check::Report tight = check::validate_weighted_fib(long_line(tight_n), long_line_fib(tight_n),
                                                     {{0, tight_n - 1}});
  EXPECT_TRUE(has_code(tight, "te.wfib.hop_limit")) << tight.to_string();
}

}  // namespace
}  // namespace flattree::te
