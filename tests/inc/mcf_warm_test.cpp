// MCF warm-cache equivalence: an exact resume must return a cold solve's
// result field for field without running the solver, and any change to
// the instance key must solve cold.

#include "inc/mcf_warm.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "mcf/garg_koenemann.hpp"
#include "obs/metrics.hpp"

namespace flattree::inc {
namespace {

using graph::Graph;
using graph::NodeId;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bits_equal(a[i], b[i])) return false;
  return true;
}

void expect_same_result(const mcf::McfResult& a, const mcf::McfResult& b) {
  EXPECT_TRUE(bits_equal(a.lambda_lower, b.lambda_lower));
  EXPECT_TRUE(bits_equal(a.lambda_upper, b.lambda_upper));
  EXPECT_TRUE(bits_equal(a.max_congestion, b.max_congestion));
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_EQ(a.augmentations, b.augmentations);
  EXPECT_EQ(a.dijkstra_runs, b.dijkstra_runs);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_TRUE(bits_equal(a.arc_flow, b.arc_flow));
  EXPECT_TRUE(bits_equal(a.commodity_routed, b.commodity_routed));
  EXPECT_TRUE(bits_equal(a.served_fraction, b.served_fraction));
  EXPECT_EQ(a.unreachable, b.unreachable);
}

std::uint64_t counter(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

/// Ring + chords: connected, with enough path diversity for the solver to
/// spread flow.
Graph test_graph() {
  Graph g(8);
  for (NodeId v = 0; v < 8; ++v) g.add_link(v, static_cast<NodeId>((v + 1) % 8));
  g.add_link(0, 4, 2.0);
  g.add_link(2, 6, 2.0);
  g.add_link(1, 5);
  return g;
}

std::vector<mcf::Commodity> test_commodities() {
  return {{0, 3, 1.0}, {1, 6, 1.0}, {4, 7, 0.5}, {2, 5, 1.5}};
}

mcf::McfOptions test_options() {
  mcf::McfOptions opt;
  opt.epsilon = 0.12;
  return opt;
}

TEST(McfWarm, ExactResumeIsBitwiseIdenticalAndSavesAllPhases) {
  Graph g = test_graph();
  auto commodities = test_commodities();
  auto opt = test_options();

  mcf::McfResult cold = mcf::max_concurrent_flow(g, commodities, opt);
  ASSERT_FALSE(cold.truncated);

  McfWarmCache cache;
  mcf::McfResult first = cache.solve(g, commodities, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::Cold);
  EXPECT_TRUE(bits_equal(first.lambda_lower, cold.lambda_lower));

  // The resume returns the stored result: every phase is saved because
  // the solver does not run at all.
  bool before = obs::enabled();
  obs::set_enabled(true);
  obs::reset_metrics();
  mcf::McfResult resumed = cache.solve(g, commodities, opt);
  obs::MetricsSnapshot snap = obs::snapshot_metrics();
  obs::set_enabled(before);
  EXPECT_EQ(cache.last_tier(), WarmTier::ExactResume);
  expect_same_result(resumed, cold);
  EXPECT_EQ(counter(snap, "mcf.gk.solves"), 0u);
  EXPECT_EQ(counter(snap, "mcf.gk.phases"), 0u);
  EXPECT_EQ(counter(snap, "inc.mcf.exact_resumes"), 1u);

  // A third call resumes again.
  mcf::McfResult again = cache.solve(g, commodities, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::ExactResume);
  expect_same_result(again, cold);
}

TEST(McfWarm, UpperBoundRequestIsPartOfTheInstanceKey) {
  Graph g = test_graph();
  auto commodities = test_commodities();
  auto no_bound = test_options();
  no_bound.compute_upper_bound = false;
  auto bound = test_options();
  McfWarmCache cache;

  mcf::McfResult first = cache.solve(g, commodities, no_bound);
  EXPECT_EQ(first.lambda_upper, std::numeric_limits<double>::infinity());
  // Same instance, but now the caller wants the bound: a hit would hand
  // back the stored inf, so this must solve (cold, as a resume would).
  mcf::McfResult second = cache.solve(g, commodities, bound);
  EXPECT_EQ(cache.last_tier(), WarmTier::Cold);
  EXPECT_TRUE(std::isfinite(second.lambda_upper));
  expect_same_result(second, mcf::max_concurrent_flow(g, commodities, bound));

  mcf::McfResult third = cache.solve(g, commodities, bound);
  EXPECT_EQ(cache.last_tier(), WarmTier::ExactResume);
  EXPECT_TRUE(std::isfinite(third.lambda_upper));
  expect_same_result(third, second);
}

TEST(McfWarm, TruncatedRunsAreStoredButNeverSeed) {
  Graph g = test_graph();
  auto commodities = test_commodities();
  auto opt = test_options();
  opt.max_phases = 1;
  McfWarmCache cache;

  mcf::McfResult cut = cache.solve(g, commodities, opt);
  ASSERT_TRUE(cut.truncated);
  mcf::McfResult hit = cache.solve(g, commodities, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::ExactResume);
  expect_same_result(hit, mcf::max_concurrent_flow(g, commodities, opt));

  // A changed instance solves cold, exactly as without the cache.
  auto heavier = commodities;
  heavier[0].demand = 2.0;
  mcf::McfResult changed = cache.solve(g, heavier, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::Cold);
  expect_same_result(changed, mcf::max_concurrent_flow(g, heavier, opt));
}

TEST(McfWarm, ChangedCommoditiesOrEpsilonDowngradeTheTier) {
  Graph g = test_graph();
  auto commodities = test_commodities();
  auto opt = test_options();
  McfWarmCache cache;
  cache.solve(g, commodities, opt);

  // Same graph, different demand vector: cold, and bitwise a cold solve.
  auto heavier = commodities;
  heavier[0].demand = 2.0;
  mcf::McfResult changed = cache.solve(g, heavier, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::Cold);
  expect_same_result(changed, mcf::max_concurrent_flow(g, heavier, opt));
  // The changed instance is now the stored one.
  cache.solve(g, heavier, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::ExactResume);

  // Different epsilon: cold.
  auto opt2 = opt;
  opt2.epsilon = 0.2;
  mcf::McfResult other_eps = cache.solve(g, heavier, opt2);
  EXPECT_EQ(cache.last_tier(), WarmTier::Cold);
  expect_same_result(other_eps, mcf::max_concurrent_flow(g, heavier, opt2));

  // An added link: cold.
  Graph wider = test_graph();
  wider.add_link(3, 7);
  mcf::McfResult more_links = cache.solve(wider, heavier, opt2);
  EXPECT_EQ(cache.last_tier(), WarmTier::Cold);
  expect_same_result(more_links, mcf::max_concurrent_flow(wider, heavier, opt2));
}

TEST(McfWarm, NodeCountChangeGoesCold) {
  auto opt = test_options();
  McfWarmCache cache;
  Graph g = test_graph();
  cache.solve(g, test_commodities(), opt);

  Graph bigger(9);
  for (NodeId v = 0; v < 9; ++v) bigger.add_link(v, static_cast<NodeId>((v + 1) % 9));
  cache.solve(bigger, {{0, 4, 1.0}}, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::Cold);
}

}  // namespace
}  // namespace flattree::inc
