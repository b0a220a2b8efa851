// SLO deadline budgets: the deadline_ms -> augmentation-budget map must be
// a pure, monotone function of the request (no wall clock), and a budgeted
// fault::assess solve (the one query/what_if run) must stay certified —
// truncation widens the bracket, it never invalidates it. A budgeted solve
// is a pure function of its inputs, so the service's batch layout can
// never show in the response bytes. The rates are compile-time constants
// (svc/slo.hpp static_asserts that they are positive).

#include "svc/slo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "fault/degrade.hpp"

namespace flattree::svc {
namespace {

using graph::NodeId;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Ring + chords, one server per switch: enough path diversity that GK
/// needs many augmentations, so small budgets truncate.
topo::Topology test_topology() {
  topo::Topology t;
  for (std::uint32_t v = 0; v < 8; ++v) t.add_switch(topo::SwitchKind::Edge, 0, v, 8);
  for (NodeId v = 0; v < 8; ++v)
    t.add_link(v, static_cast<NodeId>((v + 1) % 8), topo::LinkOrigin::Random);
  t.add_link(0, 4, topo::LinkOrigin::Random, 2.0);
  t.add_link(2, 6, topo::LinkOrigin::Random, 2.0);
  t.add_link(1, 5, topo::LinkOrigin::Random);
  for (NodeId v = 0; v < 8; ++v) t.add_server(v);
  return t;
}

/// Four sources and four sinks, so the instance runs GK, not the exact path.
std::vector<mcf::ServerDemand> test_demands() {
  return {{0, 3, 1.0}, {1, 6, 1.0}, {4, 7, 0.5}, {2, 5, 1.5}};
}

fault::Assessment assess(const std::vector<mcf::ServerDemand>& demands,
                         std::uint64_t budget) {
  return fault::assess(test_topology(), /*stranded=*/{}, demands, 0.12, budget);
}

TEST(SloBudget, ZeroDeadlineMeansUnlimited) {
  EXPECT_EQ(budget_augmentations(0.0), 0u);
  EXPECT_EQ(budget_augmentations(-1.0), 0u);
}

TEST(SloBudget, ScalesWithDeadlineAndPolicy) {
  // kAugmentationsPerMs (4000) augmentations per deadline millisecond.
  EXPECT_EQ(kAugmentationsPerMs, 4000.0);
  EXPECT_EQ(budget_augmentations(2.0), 8000u);
  EXPECT_EQ(budget_augmentations(0.5), 2000u);
  EXPECT_EQ(budget_augmentations(0.125), 500u);
}

TEST(SloBudget, FloorsTinyDeadlines) {
  // Even an unmeetable deadline buys enough work for a usable bound: 32
  // augmentations. (Deadlines are powers of two, so the products are
  // exact: 2^-7 ms buys 31.25, 2^-6 ms 62.5.)
  EXPECT_EQ(kMinAugmentations, 32u);
  EXPECT_EQ(budget_augmentations(0.0001), 32u);
  EXPECT_EQ(budget_augmentations(0.0078125), 32u);
  EXPECT_EQ(budget_augmentations(0.015625), 62u);
}

TEST(SloBudget, MonotoneInDeadline) {
  std::uint64_t prev = 0;
  for (double dl : {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0}) {
    std::uint64_t b = budget_augmentations(dl);
    EXPECT_GE(b, prev) << dl;
    prev = b;
  }
}

TEST(SloBudget, DesignIterationsAtTheFixedRate) {
  // 0.25 iterations per deadline ms, floored at 4; no deadline is unlimited.
  EXPECT_EQ(budget_iterations(0.0), 0u);
  EXPECT_EQ(budget_iterations(1.0), kMinDesignIterations);
  EXPECT_EQ(budget_iterations(16.0), 4u);
  EXPECT_EQ(budget_iterations(100.0), 25u);
  EXPECT_EQ(budget_iterations(1e300), 9000000000000000000ull);
}

TEST(SloBudget, SaturatesInsteadOfOverflowing) {
  std::uint64_t cap = budget_augmentations(1e300);
  EXPECT_EQ(cap, 9000000000000000000ull);
  EXPECT_EQ(budget_augmentations(1e308), cap);
}

TEST(SloSolveTest, UnlimitedBudgetIsNotTruncated) {
  fault::Assessment s = assess(test_demands(), /*budget=*/0);
  EXPECT_TRUE(s.solved);
  EXPECT_FALSE(s.result.truncated);
  EXPECT_TRUE(s.certificate.ok());
  EXPECT_GT(s.result.lambda_lower, 0.0);
  EXPECT_GE(s.result.lambda_upper, s.result.lambda_lower);
  EXPECT_EQ(s.served, 1.0);
}

TEST(SloSolveTest, TinyBudgetTruncatesButStaysCertified) {
  fault::Assessment s = assess(test_demands(), /*budget=*/3);
  EXPECT_TRUE(s.result.truncated);
  EXPECT_EQ(s.result.augmentations, 3u);
  // The truncated answer is still externally verified evidence: the flows
  // are feasible and the bracket is valid, just wider.
  EXPECT_TRUE(s.certificate.ok());
  fault::Assessment full = assess(test_demands(), 0);
  EXPECT_LE(s.result.lambda_lower, full.result.lambda_lower);
  EXPECT_GE(s.result.lambda_upper, full.result.lambda_lower);
}

TEST(SloSolveTest, EmptyCommoditiesAreVacuouslyCertified) {
  // No demand at all means no throughput; demand that never leaves its
  // switch aggregates to no commodity. Neither runs a solve.
  for (const auto& demands : {std::vector<mcf::ServerDemand>{},
                              std::vector<mcf::ServerDemand>{{3, 3, 1.0}}}) {
    fault::Assessment s = assess(demands, 100);
    EXPECT_FALSE(s.solved);
    EXPECT_TRUE(s.certificate.ok());
    EXPECT_FALSE(s.result.truncated);
    EXPECT_EQ(s.result.lambda_lower, 0.0);
  }
}

TEST(SloSolveTest, TruncatedSolvesNeverResume) {
  // A truncated run is never re-entered: solving the identical budgeted
  // instance again starts over and stops at the same point, bit for bit.
  fault::Assessment first = assess(test_demands(), /*budget=*/10);
  ASSERT_TRUE(first.result.truncated);
  fault::Assessment again = assess(test_demands(), /*budget=*/10);
  EXPECT_TRUE(again.result.truncated);
  EXPECT_EQ(again.result.augmentations, first.result.augmentations);
  EXPECT_TRUE(bits_equal(again.result.lambda_lower, first.result.lambda_lower));
  EXPECT_TRUE(bits_equal(again.result.lambda_upper, first.result.lambda_upper));
  EXPECT_EQ(again.certificate.ok(), first.certificate.ok());
}

}  // namespace
}  // namespace flattree::svc
