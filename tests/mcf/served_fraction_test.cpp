// McfOptions::allow_unreachable / McfResult::served_fraction regression
// suite (ISSUE 5): disconnected commodities are excised into an explicit
// served fraction with a certified solve of the reachable sub-instance —
// never a phase-limit truncation or a throw.

#include <gtest/gtest.h>

#include "check/certify.hpp"
#include "mcf/garg_koenemann.hpp"

namespace flattree::mcf {
namespace {

McfOptions served(double eps = 0.05) {
  McfOptions o;
  o.epsilon = eps;
  o.allow_unreachable = true;
  return o;
}

// Two components: {0,1} and {2,3}, no path between them.
graph::Graph split_graph() {
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, 1.0);
  g.add_link(2, 3, 1.0);
  return g;
}

// Regression: a fully-disconnected commodity group must yield the
// degenerate zero solve with served_fraction = 0 and a zero-violation
// certificate — not a GK phase-limit truncation (the solver never enters
// the phase loop at all) and not an exception.
TEST(ServedFraction, FullyDisconnectedGroupIsCertifiedZeroSolve) {
  graph::Graph g = split_graph();
  std::vector<Commodity> cs = {{0, 2, 1.0}, {1, 3, 2.0}};
  McfResult r = max_concurrent_flow(g, cs, served());
  EXPECT_EQ(r.served_fraction, 0.0);
  EXPECT_EQ(r.unreachable, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.phases, 0u);
  EXPECT_EQ(r.lambda_lower, 0.0);
  EXPECT_EQ(r.lambda_upper, 0.0);
  for (double f : r.commodity_routed) EXPECT_EQ(f, 0.0);

  check::CertifyOptions copt;
  copt.epsilon = 0.05;
  check::Report report = check::certify_served(g, cs, r, copt);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ServedFraction, PartialDisconnectionSolvesTheReachableShare) {
  graph::Graph g = split_graph();
  // Demand-weighted: reachable 1.0 + 3.0 of total 5.0 -> 0.8.
  std::vector<Commodity> cs = {{0, 1, 1.0}, {0, 3, 1.0}, {2, 3, 3.0}};
  McfResult r = max_concurrent_flow(g, cs, served());
  EXPECT_DOUBLE_EQ(r.served_fraction, 0.8);
  EXPECT_EQ(r.unreachable, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(r.commodity_routed[1], 0.0);
  EXPECT_GT(r.commodity_routed[0], 0.0);
  EXPECT_GT(r.commodity_routed[2], 0.0);
  // The bracket covers the reachable sub-instance: each component's single
  // link serves its commodity fully (lambda ~= 1/3 from the 3.0 demand).
  EXPECT_GT(r.lambda_lower, 0.0);

  check::CertifyOptions copt;
  copt.epsilon = 0.05;
  check::Report report = check::certify_served(g, cs, r, copt);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ServedFraction, ConnectedInputIsUnchangedByTheFlag) {
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 1.0);
  std::vector<Commodity> cs = {{0, 2, 1.0}};
  McfOptions plain;
  plain.epsilon = 0.05;
  McfResult a = max_concurrent_flow(g, cs, plain);
  McfResult b = max_concurrent_flow(g, cs, served());
  EXPECT_EQ(b.served_fraction, 1.0);
  EXPECT_TRUE(b.unreachable.empty());
  // Bitwise-identical solve: the pre-pass finds nothing and falls through.
  EXPECT_EQ(a.lambda_lower, b.lambda_lower);
  EXPECT_EQ(a.arc_flow, b.arc_flow);
}

TEST(ServedFraction, DisconnectedWithoutTheFlagStillThrows) {
  graph::Graph g = split_graph();
  std::vector<Commodity> cs = {{0, 2, 1.0}};
  McfOptions plain;
  plain.epsilon = 0.05;
  EXPECT_THROW(max_concurrent_flow(g, cs, plain), std::invalid_argument);
}

// The deadline-style budget: max_augmentations cuts the solve at a
// deterministic augmentation count with truncated = true, and the partial
// flow still certifies primally.
TEST(ServedFraction, AugmentationBudgetTruncatesDeterministically) {
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 3, 1.0);
  g.add_link(0, 2, 1.0);
  g.add_link(2, 3, 0.5);
  std::vector<Commodity> cs = {{0, 3, 1.0}, {1, 2, 0.5}};
  McfOptions budget;
  budget.epsilon = 0.05;
  budget.max_augmentations = 3;
  McfResult r = max_concurrent_flow(g, cs, budget);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.augmentations, 3u);

  McfResult again = max_concurrent_flow(g, cs, budget);
  EXPECT_EQ(r.lambda_lower, again.lambda_lower);
  EXPECT_EQ(r.arc_flow, again.arc_flow);

  check::CertifyOptions copt;
  copt.epsilon = 0.05;
  check::Report report = check::certify(g, cs, r, copt);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // A generous budget never triggers: same result as unlimited.
  McfOptions loose;
  loose.epsilon = 0.05;
  McfOptions unlimited = loose;
  loose.max_augmentations = 1u << 20;
  McfResult full = max_concurrent_flow(g, cs, loose);
  McfResult ref = max_concurrent_flow(g, cs, unlimited);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.lambda_lower, ref.lambda_lower);
  EXPECT_EQ(full.arc_flow, ref.arc_flow);
}

}  // namespace
}  // namespace flattree::mcf
