// Equal-cost (ECMP) forwarding tables: te::compile_fib installs every
// next hop once at weight 1, select() on such a table is the classic ECMP
// hash, and check::validate_weighted_fib model-checks it like any other
// table.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "check/te_check.hpp"
#include "core/flat_tree.hpp"
#include "graph/bfs.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "routing/ksp_routing.hpp"
#include "te/long_line.hpp"
#include "te/wcmp.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace flattree::te {
namespace {

using routing::all_server_pairs;

bool has_code(const check::Report& r, const std::string& code) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [&](const check::Violation& v) { return v.code == code; });
}

topo::Topology line3() {
  topo::Topology t;
  for (int i = 0; i < 3; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  t.add_link(0, 1, topo::LinkOrigin::Random);
  t.add_link(1, 2, topo::LinkOrigin::Random);
  t.add_server(0);
  t.add_server(2);
  return t;
}

TEST(Fib, AddAndLookup) {
  WeightedFib fib = WeightedFib::equal_cost(3);
  fib.add_route(0, 2, 0, 1);
  fib.add_route(1, 2, 1, 1);
  EXPECT_TRUE(fib.is_equal_cost());
  EXPECT_EQ(fib.weight_budget(), 0u);
  EXPECT_EQ(fib.next_hops(0, 2).size(), 1u);
  EXPECT_EQ(fib.next_hops(1, 2).size(), 1u);
  EXPECT_TRUE(fib.next_hops(2, 0).empty());
  EXPECT_EQ(fib.rule_count(), 2u);
  EXPECT_EQ(fib.entry_count(), 2u);
  EXPECT_EQ(fib.total_weight(), 2u);
}

TEST(Fib, SelectDeterministicAndThrowsOnMiss) {
  WeightedFib fib = WeightedFib::equal_cost(3);
  fib.add_route(0, 2, 0, 1);
  EXPECT_EQ(fib.select(0, 2, 99), 0u);
  EXPECT_EQ(fib.select(0, 2, 99), fib.select(0, 2, 99));
  EXPECT_THROW(fib.select(1, 2, 0), std::runtime_error);
}

TEST(CompileFib, InstallsHopByHop) {
  topo::Topology t = line3();
  routing::EcmpRouting routing(t.graph());
  WeightedFib fib = compile_fib(t, routing, all_server_pairs(t));
  EXPECT_TRUE(fib.is_equal_cost());
  EXPECT_EQ(fib.next_hops(0, 2).size(), 1u);
  EXPECT_EQ(fib.next_hops(1, 2).size(), 1u);
  EXPECT_EQ(fib.next_hops(2, 0).size(), 1u);
  EXPECT_EQ(fib.next_hops(1, 0).size(), 1u);
}

TEST(VerifyFib, EcmpOnFatTreeIsLoopFree) {
  topo::FatTree ft = topo::build_fat_tree(4);
  routing::EcmpRouting routing(ft.topo.graph());
  auto pairs = all_server_pairs(ft.topo);
  WeightedFib fib = compile_fib(ft.topo, routing, pairs);
  // Every hop must decrease the BFS distance (te.wfib.progress), so no
  // walk is longer than the fat-tree switch diameter, 4.
  check::Report r = check::validate_weighted_fib(ft.topo, fib, pairs);
  EXPECT_TRUE(r.ok()) << r.to_string();
  for (graph::NodeId v = 0; v < ft.topo.switch_count(); ++v)
    for (std::uint32_t d : graph::bfs_distances(ft.topo.graph(), v)) EXPECT_LE(d, 4u);
  EXPECT_GE(r.checks_run, pairs.size());
}

TEST(VerifyFib, EcmpOnConvertedFlatTreeIsLoopFree) {
  core::FlatTreeConfig cfg;
  cfg.k = 6;
  core::FlatTreeNetwork net(cfg);
  topo::Topology grg = net.build(core::Mode::GlobalRandom);
  routing::EcmpRouting routing(grg.graph());
  auto pairs = all_server_pairs(grg);
  WeightedFib fib = compile_fib(grg, routing, pairs);
  check::Report r = check::validate_weighted_fib(grg, fib, pairs);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(VerifyFib, HopByHopKspOnRingLoops) {
  // Ring of 6 with sources 0 and 3: their KSP detour paths toward shared
  // destinations traverse nodes 4/5 in opposite directions, so hop-by-hop
  // installation lets a walk bounce 4 -> 5 -> 4 (the classic reason KSP
  // needs pinned paths rather than per-hop rules).
  topo::Topology t;
  for (int i = 0; i < 6; ++i) t.add_switch(topo::SwitchKind::Edge, 0, i, 4);
  for (graph::NodeId i = 0; i < 6; ++i)
    t.add_link(i, (i + 1) % 6, topo::LinkOrigin::Random);
  t.add_server(0);
  t.add_server(2);
  t.add_server(3);
  routing::KspRouting routing(t.graph(), 4);
  auto pairs = all_server_pairs(t);
  WeightedFib fib = compile_fib(t, routing, pairs);
  check::Report r = check::validate_weighted_fib(t, fib, pairs);
  EXPECT_TRUE(has_code(r, "te.wfib.loop")) << r.to_string();
}

TEST(VerifyFib, DetectsBlackhole) {
  topo::Topology t = line3();
  WeightedFib fib = WeightedFib::equal_cost(3);
  fib.add_route(0, 2, 0, 1);  // installed at 0 but missing at 1
  check::Report r = check::validate_weighted_fib(t, fib, {{0, 2}});
  EXPECT_TRUE(has_code(r, "te.wfib.blackhole")) << r.to_string();
}

TEST(VerifyFib, HopLimitEnforced) {
  // Compiled over a line one hop longer than check::kFibHopLimit allows.
  topo::Topology t = long_line(check::kFibHopLimit + 2);
  routing::EcmpRouting routing(t.graph());
  auto pairs = all_server_pairs(t);
  WeightedFib fib = compile_fib(t, routing, pairs);
  check::Report tight = check::validate_weighted_fib(t, fib, pairs);
  EXPECT_TRUE(has_code(tight, "te.wfib.hop_limit")) << tight.to_string();
}

TEST(FibSelect, StableAcrossRebuildsAndThreadCounts) {
  // select() is a pure function of (at, dst, flow_id): two independently
  // compiled FIBs over the same topology must route every flow id the
  // same way, regardless of compilation order or the exec pool size the
  // enclosing bench happened to use (nothing in the FIB reads the pool).
  topo::FatTree ft = topo::build_fat_tree(4);
  routing::EcmpRouting r1(ft.topo.graph());
  routing::EcmpRouting r2(ft.topo.graph());
  auto pairs = all_server_pairs(ft.topo);
  WeightedFib a = compile_fib(ft.topo, r1, pairs);
  WeightedFib b = compile_fib(ft.topo, r2, pairs);
  for (auto [src, dst] : pairs)
    for (std::uint64_t flow = 0; flow < 32; ++flow)
      EXPECT_EQ(a.select(src, dst, flow), b.select(src, dst, flow));
}

TEST(FibSelect, FlowSweepSpreadsAcrossEqualCostHops) {
  // Distribution sanity over a deterministic flow-id sweep: an edge switch
  // with two equal-cost uplinks should see a near-even split (the hash is
  // mix64; an exact bound would overfit, but 40/60 catches a broken hash
  // or an always-first-hop regression).
  topo::FatTree ft = topo::build_fat_tree(4);
  routing::EcmpRouting routing(ft.topo.graph());
  auto pairs = all_server_pairs(ft.topo);
  WeightedFib fib = compile_fib(ft.topo, routing, pairs);
  auto [src, dst] = pairs[0];
  graph::NodeId inter_pod_dst = 0;
  bool found = false;
  for (auto [s, d] : pairs)
    if (s == src && fib.next_hops(src, d).size() >= 2) {
      inter_pod_dst = d;
      found = true;
      break;
    }
  ASSERT_TRUE(found);
  const auto& hops = fib.next_hops(src, inter_pod_dst);
  std::map<graph::LinkId, int> hits;
  const int sweep = 4000;
  for (int flow = 0; flow < sweep; ++flow)
    ++hits[fib.select(src, inter_pod_dst, static_cast<std::uint64_t>(flow))];
  for (const auto& [link, count] : hits) {
    double share = static_cast<double>(count) / sweep;
    double even = 1.0 / static_cast<double>(hops.size());
    EXPECT_GT(share, even - 0.1) << "link " << link;
    EXPECT_LT(share, even + 0.1) << "link " << link;
  }
  EXPECT_EQ(hits.size(), hops.size());  // every hop gets traffic
}

TEST(VerifyFib, RuleCountsReasonableOnFatTree) {
  topo::FatTree ft = topo::build_fat_tree(4);
  routing::EcmpRouting routing(ft.topo.graph());
  auto pairs = all_server_pairs(ft.topo);
  WeightedFib fib = compile_fib(ft.topo, routing, pairs);
  // 8 hosting edge switches; every switch needs entries for at most 8
  // destinations (7 at edges).
  EXPECT_LE(fib.entry_count(), ft.topo.switch_count() * 8);
  EXPECT_GT(fib.rule_count(), fib.entry_count());  // ECMP multipath
}

/// Same-output oracle: on an equal-cost table, select()'s walk along the
/// weight line must pick exactly the hop the ECMP hash picks,
/// hops[mix64(flow ^ (at << 32 | dst)) % n].link, for every flow id.
void expect_select_matches_ecmp_hash(const topo::Topology& t) {
  routing::EcmpRouting routing(t.graph());
  auto pairs = all_server_pairs(t);
  WeightedFib fib = compile_fib(t, routing, pairs);
  ASSERT_TRUE(fib.is_equal_cost());
  EXPECT_TRUE(check::validate_weighted_fib(t, fib, pairs).ok());

  std::vector<std::pair<NodeId, NodeId>> entries;
  for (NodeId at = 0; at < fib.switch_count(); ++at)
    for (NodeId dst : fib.destinations(at)) {
      for (const WeightedHop& hop : fib.next_hops(at, dst)) ASSERT_EQ(hop.weight, 1u);
      if (fib.next_hops(at, dst).size() >= 2) entries.emplace_back(at, dst);
    }
  ASSERT_GE(entries.size(), 16u);
  // Every multipath entry at a stride, each swept over 10k flow ids.
  const std::size_t stride = std::max<std::size_t>(1, entries.size() / 32);
  for (std::size_t e = 0; e < entries.size(); e += stride) {
    auto [at, dst] = entries[e];
    const auto& hops = fib.next_hops(at, dst);
    for (std::uint64_t flow = 0; flow < 10000; ++flow) {
      std::uint64_t h = util::mix64(flow ^ ((static_cast<std::uint64_t>(at) << 32) | dst));
      ASSERT_EQ(fib.select(at, dst, flow), hops[h % hops.size()].link)
          << "at " << at << " dst " << dst << " flow " << flow;
    }
  }
}

TEST(FibSelect, EqualCostMatchesEcmpHashOnFatTree) {
  expect_select_matches_ecmp_hash(topo::build_fat_tree(8).topo);
}

TEST(FibSelect, EqualCostMatchesEcmpHashOnConvertedFlatTree) {
  core::FlatTreeConfig cfg;
  cfg.k = 8;
  core::FlatTreeNetwork net(cfg);
  expect_select_matches_ecmp_hash(net.build(core::Mode::GlobalRandom));
}

}  // namespace
}  // namespace flattree::te
