// MCF warm-start equivalence: exact resume must be bitwise identical to a
// cold solve with every prior phase saved; dual seeds must keep both
// certified bounds; tampered warm state (negative control) must be caught
// by check::certify.

#include "inc/mcf_warm.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <vector>

#include "check/certify.hpp"
#include "mcf/garg_koenemann.hpp"
#include "util/rng.hpp"

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

  mcf::McfResult resumed = cache.solve(g, commodities, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::ExactResume);
  EXPECT_TRUE(bits_equal(resumed.lambda_lower, cold.lambda_lower));
  EXPECT_TRUE(bits_equal(resumed.lambda_upper, cold.lambda_upper));
  EXPECT_TRUE(bits_equal(resumed.max_congestion, cold.max_congestion));
  EXPECT_TRUE(bits_equal(resumed.arc_flow, cold.arc_flow));
  EXPECT_TRUE(bits_equal(resumed.commodity_routed, cold.commodity_routed));
  EXPECT_EQ(resumed.phases, cold.phases);
  EXPECT_EQ(resumed.warm_phases_saved, cold.phases);
  EXPECT_FALSE(resumed.truncated);

  // A third call resumes again — the exported state stays converged.
  mcf::McfResult again = cache.solve(g, commodities, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::ExactResume);
  EXPECT_TRUE(bits_equal(again.lambda_lower, cold.lambda_lower));
}

TEST(McfWarm, DualSeedKeepsCertifiedBoundsAcrossLinkChanges) {
  auto commodities = test_commodities();
  auto opt = test_options();
  McfWarmCache cache;

  Graph healthy = test_graph();
  cache.solve(healthy, commodities, opt);
  ASSERT_EQ(cache.last_tier(), WarmTier::Cold);

  // Degraded instance: same node space, one chord gone.
  Graph degraded(8);
  for (NodeId v = 0; v < 8; ++v)
    degraded.add_link(v, static_cast<NodeId>((v + 1) % 8));
  degraded.add_link(0, 4, 2.0);
  degraded.add_link(2, 6, 2.0);
  mcf::McfResult warm = cache.solve(degraded, commodities, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::DualSeed);
  // solve() already certified internally (it throws otherwise); sanity-check
  // the bracket against an independent cold solve of the same instance.
  mcf::McfResult cold = mcf::max_concurrent_flow(degraded, commodities, opt);
  EXPECT_LE(warm.lambda_lower, warm.lambda_upper);
  EXPECT_LE(warm.lambda_lower, cold.lambda_upper + 1e-12);
  EXPECT_LE(cold.lambda_lower, warm.lambda_upper + 1e-12);

  // Back to healthy: dual seed again (instance differs from the degraded
  // one the cache now remembers).
  mcf::McfResult healed = cache.solve(healthy, commodities, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::DualSeed);
  EXPECT_LE(healed.lambda_lower, healed.lambda_upper);
}

TEST(McfWarm, ChangedCommoditiesOrEpsilonDowngradeTheTier) {
  Graph g = test_graph();
  auto commodities = test_commodities();
  auto opt = test_options();
  McfWarmCache cache;
  cache.solve(g, commodities, opt);

  // Same graph, different demand vector: not exact, but dual-seedable.
  auto heavier = commodities;
  heavier[0].demand = 2.0;
  cache.solve(g, heavier, opt);
  EXPECT_EQ(cache.last_tier(), WarmTier::DualSeed);

  // Different epsilon: dual lengths were built for another delta — cold.
  auto opt2 = opt;
  opt2.epsilon = 0.2;
  cache.solve(g, commodities, opt2);
  EXPECT_EQ(cache.last_tier(), WarmTier::Cold);
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

TEST(McfWarm, CacheOwnsWarmFields) {
  McfWarmCache cache;
  Graph g = test_graph();
  mcf::McfOptions opt = test_options();
  mcf::McfWarmState state;
  opt.warm_start = &state;
  EXPECT_THROW(cache.solve(g, test_commodities(), opt), std::invalid_argument);
  opt.warm_start = nullptr;
  opt.export_state = &state;
  EXPECT_THROW(cache.solve(g, test_commodities(), opt), std::invalid_argument);
}

// -- negative control ------------------------------------------------------

// Corrupt the primal half of an exported warm state and resume "exactly":
// the solver trusts the caller's assertion, but check::certify must reject
// the resulting solution (conservation: arc-flow divergence no longer
// matches the claimed per-commodity routed totals).
TEST(McfWarm, CertifyCatchesCorruptedWarmState) {
  Graph g = test_graph();
  auto commodities = test_commodities();
  mcf::McfOptions opt = test_options();

  mcf::McfWarmState exported;
  opt.export_state = &exported;
  mcf::McfResult clean = mcf::max_concurrent_flow(g, commodities, opt);
  ASSERT_FALSE(clean.truncated);
  ASSERT_TRUE(exported.converged);

  mcf::McfWarmState tampered = exported;
  tampered.exact = true;
  tampered.routed[0] *= 3.0;  // claim commodity 0 shipped 3x what it did

  mcf::McfOptions resume = opt;
  resume.export_state = nullptr;
  resume.warm_start = &tampered;
  mcf::McfResult bogus = mcf::max_concurrent_flow(g, commodities, resume);

  check::CertifyOptions copt;
  copt.epsilon = opt.epsilon;
  check::Report clean_report = check::certify(g, commodities, clean, copt);
  EXPECT_TRUE(clean_report.ok());
  check::Report bogus_report = check::certify(g, commodities, bogus, copt);
  EXPECT_FALSE(bogus_report.ok()) << "corrupted warm state escaped certification";
}

TEST(McfWarm, MalformedWarmStateRejectedUpFront) {
  Graph g = test_graph();
  auto commodities = test_commodities();
  mcf::McfOptions opt = test_options();
  mcf::McfWarmState bad;
  bad.length.assign(3, 1.0);  // wrong arity: must be 2 * link_count
  opt.warm_start = &bad;
  EXPECT_THROW(mcf::max_concurrent_flow(g, commodities, opt), std::invalid_argument);
}

}  // namespace
}  // namespace flattree::inc
