// SLO deadline budgets: the deadline_ms -> augmentation-budget map must be
// a pure, monotone function of the request (no wall clock), and a budgeted
// solve must stay certified — truncation widens the bracket, it never
// invalidates it. The warm path must remain bitwise identical to cold
// under a budget, because the service's batch layout (warm sequential vs
// cold parallel) must never show in the response bytes. A rate that is
// not finite and positive is refused.

#include "svc/slo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <stdexcept>
#include <vector>

#include "check/certify.hpp"

namespace flattree::svc {
namespace {

using graph::Graph;
using graph::NodeId;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Ring + chords (the inc::McfWarmCache test graph): enough path diversity
/// that GK needs many augmentations, so small budgets truncate.
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

TEST(SloBudget, ZeroDeadlineMeansUnlimited) {
  SloPolicy policy;
  EXPECT_EQ(budget_augmentations(policy, 0.0), 0u);
  EXPECT_EQ(budget_augmentations(policy, -1.0), 0u);
}

TEST(SloBudget, ScalesWithDeadlineAndPolicy) {
  SloPolicy policy;
  policy.augmentations_per_ms = 1000.0;
  policy.min_augmentations = 8;
  EXPECT_EQ(budget_augmentations(policy, 2.0), 2000u);
  EXPECT_EQ(budget_augmentations(policy, 0.5), 500u);
  policy.augmentations_per_ms = 250.0;
  EXPECT_EQ(budget_augmentations(policy, 2.0), 500u);
}

TEST(SloBudget, FloorsTinyDeadlines) {
  // Even an unmeetable deadline buys enough work for a usable bound.
  SloPolicy policy;
  policy.augmentations_per_ms = 1000.0;
  policy.min_augmentations = 32;
  EXPECT_EQ(budget_augmentations(policy, 0.001), 32u);
  EXPECT_EQ(budget_augmentations(policy, 0.032), 32u);
  EXPECT_EQ(budget_augmentations(policy, 0.033), 33u);
}

TEST(SloBudget, MonotoneInDeadline) {
  SloPolicy policy;
  std::uint64_t prev = 0;
  for (double dl : {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0}) {
    std::uint64_t b = budget_augmentations(policy, dl);
    EXPECT_GE(b, prev) << dl;
    prev = b;
  }
}

TEST(SloBudget, RefusesNonPositiveOrNonFiniteRates) {
  // Casting a negative or NaN product to uint64_t is undefined behaviour;
  // both budget maps refuse such a rate whatever the deadline.
  for (double rate : {0.0, -1.0, -1e30, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    SloPolicy aug;
    aug.augmentations_per_ms = rate;
    EXPECT_THROW(budget_augmentations(aug, 5.0), std::invalid_argument) << rate;
    EXPECT_THROW(budget_augmentations(aug, 0.0), std::invalid_argument) << rate;
    SloPolicy design;
    design.design_iterations_per_ms = rate;
    EXPECT_THROW(budget_iterations(design, 5.0), std::invalid_argument) << rate;
    EXPECT_THROW(budget_iterations(design, 0.0), std::invalid_argument) << rate;
  }
}

TEST(SloBudget, SaturatesInsteadOfOverflowing) {
  SloPolicy policy;
  std::uint64_t cap = budget_augmentations(policy, 1e300);
  EXPECT_EQ(cap, 9000000000000000000ull);
  EXPECT_EQ(budget_augmentations(policy, 1e308), cap);
}

TEST(SloSolveTest, UnlimitedBudgetIsNotTruncated) {
  Graph g = test_graph();
  SloSolve s = solve_with_budget(g, test_commodities(), 0.12, /*budget=*/0,
                                 /*warm=*/nullptr);
  EXPECT_FALSE(s.result.truncated);
  EXPECT_TRUE(s.certified);
  EXPECT_GT(s.result.lambda_lower, 0.0);
  EXPECT_GE(s.result.lambda_upper, s.result.lambda_lower);
}

TEST(SloSolveTest, TinyBudgetTruncatesButStaysCertified) {
  Graph g = test_graph();
  SloSolve s = solve_with_budget(g, test_commodities(), 0.12, /*budget=*/3,
                                 /*warm=*/nullptr);
  EXPECT_TRUE(s.result.truncated);
  EXPECT_EQ(s.budget, 3u);
  // The truncated answer is still externally verified evidence: the flows
  // are feasible and the bracket is valid, just wider.
  EXPECT_TRUE(s.certified);
  SloSolve full = solve_with_budget(g, test_commodities(), 0.12, 0, nullptr);
  EXPECT_LE(s.result.lambda_lower, full.result.lambda_lower);
  EXPECT_GE(s.result.lambda_upper, full.result.lambda_lower);
}

TEST(SloSolveTest, EmptyCommoditiesAreVacuouslyCertified) {
  Graph g = test_graph();
  SloSolve s = solve_with_budget(g, {}, 0.12, 100, nullptr);
  EXPECT_TRUE(s.certified);
  EXPECT_FALSE(s.result.truncated);
  EXPECT_EQ(s.result.lambda_lower, 0.0);
}

TEST(SloSolveTest, WarmResumeIsBitwiseIdenticalUnderBudget) {
  Graph g = test_graph();
  auto commodities = test_commodities();
  inc::McfWarmCache warm;

  // A budget generous enough to converge; the identical instance gets the
  // stored result back.
  const std::uint64_t budget = 1000000;
  SloSolve cold = solve_with_budget(g, commodities, 0.12, budget, nullptr);
  ASSERT_FALSE(cold.result.truncated);
  solve_with_budget(g, commodities, 0.12, budget, &warm);  // populate
  SloSolve resumed = solve_with_budget(g, commodities, 0.12, budget, &warm);
  EXPECT_EQ(warm.last_tier(), inc::WarmTier::ExactResume);
  EXPECT_TRUE(bits_equal(resumed.result.lambda_lower, cold.result.lambda_lower));
  EXPECT_TRUE(bits_equal(resumed.result.lambda_upper, cold.result.lambda_upper));
  EXPECT_EQ(resumed.certified, cold.certified);
}

TEST(SloSolveTest, TruncatedSolvesNeverResume) {
  // A truncated run is never re-entered: the identical instance gets the
  // stored result back, which is exactly what a cold solve under the same
  // budget returns, so warm caching can never make a budgeted answer
  // diverge from the cold path.
  Graph g = test_graph();
  auto commodities = test_commodities();
  inc::McfWarmCache warm;

  SloSolve cold = solve_with_budget(g, commodities, 0.12, /*budget=*/10, nullptr);
  ASSERT_TRUE(cold.result.truncated);
  solve_with_budget(g, commodities, 0.12, 10, &warm);
  SloSolve again = solve_with_budget(g, commodities, 0.12, 10, &warm);
  EXPECT_EQ(warm.last_tier(), inc::WarmTier::ExactResume);
  EXPECT_TRUE(again.result.truncated);
  EXPECT_EQ(again.result.augmentations, cold.result.augmentations);
  EXPECT_TRUE(bits_equal(again.result.lambda_lower, cold.result.lambda_lower));
  EXPECT_TRUE(bits_equal(again.result.lambda_upper, cold.result.lambda_upper));
  EXPECT_EQ(again.certified, cold.certified);
}

TEST(SloSolveTest, BudgetIsPartOfTheWarmInstanceKey) {
  // A resume across different budgets would replay the old budget's
  // trajectory; the cache must treat a budget change as a new instance.
  Graph g = test_graph();
  auto commodities = test_commodities();
  inc::McfWarmCache warm;

  solve_with_budget(g, commodities, 0.12, /*budget=*/1000000, &warm);  // converges
  SloSolve cold = solve_with_budget(g, commodities, 0.12, /*budget=*/0, nullptr);
  SloSolve switched = solve_with_budget(g, commodities, 0.12, /*budget=*/0, &warm);
  EXPECT_EQ(warm.last_tier(), inc::WarmTier::Cold);  // key mismatch, no resume
  EXPECT_TRUE(bits_equal(switched.result.lambda_lower, cold.result.lambda_lower));
  EXPECT_TRUE(bits_equal(switched.result.lambda_upper, cold.result.lambda_upper));
}

}  // namespace
}  // namespace flattree::svc
