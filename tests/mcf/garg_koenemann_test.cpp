#include "mcf/garg_koenemann.hpp"

#include <gtest/gtest.h>
#include <cmath>
#include <limits>
#include <tuple>

#include "obs/metrics.hpp"

namespace flattree::mcf {
namespace {

McfOptions tight() {
  McfOptions o;
  o.epsilon = 0.05;
  return o;
}

TEST(GargKoenemann, SingleCommoditySinglePath) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 2.0);
  auto r = max_concurrent_flow(g, {{0, 1, 1.0}}, tight());
  // One link of capacity 2, demand 1 -> lambda = 2.
  EXPECT_NEAR(r.lambda_lower, 2.0, 0.02);
  EXPECT_GE(r.lambda_upper + 1e-9, r.lambda_lower);
  EXPECT_LE(r.lambda_upper, 2.0 * 1.2);
}

TEST(GargKoenemann, DemandScalesInversely) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 1.0);
  auto r1 = max_concurrent_flow(g, {{0, 1, 1.0}}, tight());
  auto r4 = max_concurrent_flow(g, {{0, 1, 4.0}}, tight());
  EXPECT_NEAR(r1.lambda_lower / r4.lambda_lower, 4.0, 0.1);
}

TEST(GargKoenemann, ParallelLinksAddCapacity) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 1.0);
  g.add_link(0, 1, 1.0);
  auto r = max_concurrent_flow(g, {{0, 1, 1.0}}, tight());
  EXPECT_NEAR(r.lambda_lower, 2.0, 0.05);
}

TEST(GargKoenemann, TwoCommoditiesShareBottleneck) {
  // Path 0-1-2: commodity 0->2 and 1->2 share link (1,2): lambda = 0.5.
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 1.0);
  auto r = max_concurrent_flow(g, {{0, 2, 1.0}, {1, 2, 1.0}}, tight());
  EXPECT_NEAR(r.lambda_lower, 0.5, 0.01);
  EXPECT_NEAR(r.lambda_upper, 0.5, 0.05);
}

TEST(GargKoenemann, OpposingCommoditiesUseFullDuplex) {
  // Full-duplex model: 0->1 and 1->0 each get the full capacity.
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 1.0);
  auto r = max_concurrent_flow(g, {{0, 1, 1.0}, {1, 0, 1.0}}, tight());
  EXPECT_NEAR(r.lambda_lower, 1.0, 0.02);
}

TEST(GargKoenemann, DiamondSplitsFlow) {
  // Two disjoint 2-hop paths: single commodity gets lambda = 2.
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 3, 1.0);
  g.add_link(0, 2, 1.0);
  g.add_link(2, 3, 1.0);
  auto r = max_concurrent_flow(g, {{0, 3, 1.0}}, tight());
  EXPECT_NEAR(r.lambda_lower, 2.0, 0.05);
}

TEST(GargKoenemann, BroadcastStarBoundedByRoot) {
  // Star: center 0 with 4 leaves; broadcast 0 -> each leaf, unit demands.
  // Each leaf link carries lambda -> lambda = 1.
  graph::Graph g;
  g.add_nodes(5);
  for (graph::NodeId leaf = 1; leaf <= 4; ++leaf) g.add_link(0, leaf, 1.0);
  std::vector<Commodity> cs;
  for (graph::NodeId leaf = 1; leaf <= 4; ++leaf) cs.push_back({0, leaf, 1.0});
  auto r = max_concurrent_flow(g, cs, tight());
  EXPECT_NEAR(r.lambda_lower, 1.0, 0.02);
}

TEST(GargKoenemann, RescaledFlowRespectsCapacities) {
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 2.0);
  g.add_link(2, 3, 0.5);
  g.add_link(0, 3, 1.0);
  auto r = max_concurrent_flow(g, {{0, 3, 1.0}, {1, 3, 0.5}}, tight());
  ASSERT_EQ(r.arc_flow.size(), g.link_count() * 2);
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    double cap = g.link(static_cast<graph::LinkId>(l)).capacity;
    EXPECT_LE(r.arc_flow[2 * l], cap * (1.0 + 1e-9));
    EXPECT_LE(r.arc_flow[2 * l + 1], cap * (1.0 + 1e-9));
  }
  EXPECT_NEAR(r.max_congestion > 0 ? 1.0 : 0.0, 1.0, 1e-9);
}

TEST(GargKoenemann, BoundsBracketTheOptimum) {
  graph::Graph g;
  g.add_nodes(6);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  g.add_link(3, 4);
  g.add_link(4, 5);
  g.add_link(5, 0);
  g.add_link(0, 3);
  auto r = max_concurrent_flow(g, {{0, 3, 1.0}, {1, 4, 1.0}, {2, 5, 1.0}}, tight());
  EXPECT_GT(r.lambda_lower, 0.0);
  EXPECT_LE(r.lambda_lower, r.lambda_upper * (1 + 1e-9));
  // FPTAS quality: gap within ~3 epsilon.
  EXPECT_GE(r.lambda_lower, r.lambda_upper * (1.0 - 3.2 * 0.05));
}

TEST(GargKoenemann, TighterEpsilonTightensGap) {
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  g.add_link(3, 0);
  std::vector<Commodity> cs{{0, 2, 1.0}, {1, 3, 1.0}};
  McfOptions loose;
  loose.epsilon = 0.5;
  McfOptions fine;
  fine.epsilon = 0.03;
  auto rl = max_concurrent_flow(g, cs, loose);
  auto rf = max_concurrent_flow(g, cs, fine);
  EXPECT_LE(rf.lambda_upper - rf.lambda_lower, rl.lambda_upper - rl.lambda_lower + 1e-9);
}

TEST(GargKoenemann, ErrorCases) {
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  EXPECT_THROW(max_concurrent_flow(g, {}, tight()), std::invalid_argument);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 0, 1.0}}, tight()), std::invalid_argument);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 1, -1.0}}, tight()), std::invalid_argument);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 2, 1.0}}, tight()), std::invalid_argument);
  McfOptions bad;
  bad.epsilon = 1.5;
  EXPECT_THROW(max_concurrent_flow(g, {{0, 1, 1.0}}, bad), std::invalid_argument);
}

TEST(GargKoenemann, EpsilonMustLieInTheOpenUnitInterval) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1);
  for (double eps : {0.0, -0.1, 1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    McfOptions o;
    o.epsilon = eps;
    EXPECT_THROW(max_concurrent_flow(g, {{0, 1, 1.0}}, o), std::invalid_argument) << eps;
  }
}

TEST(GargKoenemann, UpperBoundSkippable) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1);
  McfOptions o;
  o.epsilon = 0.1;
  o.compute_upper_bound = false;
  // Two sources and two sinks, so the instance reaches GK.
  auto r = max_concurrent_flow(g, {{0, 1, 1.0}, {1, 0, 1.0}}, o);
  EXPECT_GT(r.lambda_lower, 0.0);
  EXPECT_TRUE(std::isinf(r.lambda_upper));
}

TEST(GargKoenemann, RejectsZeroCapacityLinks) {
  // Regression: length[a] = delta / cap used to divide by zero (or produce
  // a zero length for an infinite capacity), poisoning d_sum and every
  // Dijkstra run with inf/NaN instead of failing fast. Zero and negative
  // capacities are rejected at graph construction; non-finite ones pass
  // add_link's `capacity <= 0` guard and must be rejected by the solver.
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 1.0);
  EXPECT_THROW(g.add_link(1, 2, 0.0), std::invalid_argument);

  graph::Graph neg;

  neg.add_nodes(2);
  EXPECT_THROW(neg.add_link(0, 1, -2.0), std::invalid_argument);

  graph::Graph inf_cap;

  inf_cap.add_nodes(2);
  inf_cap.add_link(0, 1, std::numeric_limits<double>::infinity());
  EXPECT_THROW(max_concurrent_flow(inf_cap, {{0, 1, 1.0}}, tight()),
               std::invalid_argument);

  graph::Graph nan_cap;

  nan_cap.add_nodes(2);
  nan_cap.add_link(0, 1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(max_concurrent_flow(nan_cap, {{0, 1, 1.0}}, tight()),
               std::invalid_argument);
}

TEST(GargKoenemann, TruncatedRunKeepsPrimalFeasibleLowerBound) {
  // Stop the solver after its first phase (two augmentations, one per
  // commodity): the reported lambda_lower must still be achieved by the
  // rescaled flows (primal-feasible), the flag must say the run was
  // truncated, and the bounds must still bracket.
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 2.0);
  g.add_link(2, 3, 0.5);
  g.add_link(0, 3, 1.0);
  // Two sources and two sinks, so the instance reaches GK.
  std::vector<Commodity> cs{{0, 3, 1.0}, {1, 2, 0.5}};
  McfOptions o;
  o.epsilon = 0.05;
  o.max_augmentations = 2;
  auto r = max_concurrent_flow(g, cs, o);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.phases, 1u);
  EXPECT_GT(r.lambda_lower, 0.0);
  EXPECT_LE(r.lambda_lower, r.lambda_upper * (1 + 1e-9));
  // Primal feasibility after rescaling: no arc over capacity, and every
  // commodity ships at least lambda_lower times its demand.
  ASSERT_EQ(r.arc_flow.size(), g.link_count() * 2);
  for (std::size_t a = 0; a < r.arc_flow.size(); ++a) {
    double cap = g.link(static_cast<graph::LinkId>(a / 2)).capacity;
    EXPECT_LE(r.arc_flow[a], cap * (1.0 + 1e-9));
  }
  ASSERT_EQ(r.commodity_routed.size(), cs.size());
  for (std::size_t i = 0; i < cs.size(); ++i)
    EXPECT_GE(r.commodity_routed[i], r.lambda_lower * cs[i].demand - 1e-9);
  // A converged run reports truncated == false.
  auto full = max_concurrent_flow(g, cs, tight());
  EXPECT_FALSE(full.truncated);
}

TEST(GargKoenemann, CommodityRoutedMatchesArcFlowDivergence) {
  graph::Graph g;
  g.add_nodes(5);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 1.5);
  g.add_link(2, 3, 0.7);
  g.add_link(3, 4, 1.0);
  g.add_link(4, 0, 2.0);
  g.add_link(1, 3, 1.0);
  std::vector<Commodity> cs{{0, 2, 1.0}, {0, 3, 0.5}, {2, 4, 1.5}};
  auto r = max_concurrent_flow(g, cs, tight());
  ASSERT_EQ(r.commodity_routed.size(), cs.size());
  // Divergence of arc_flow at each node == net routed supply there.
  std::vector<double> div(g.node_count(), 0.0);
  for (std::size_t a = 0; a < r.arc_flow.size(); ++a) {
    const graph::Link& l = g.link(static_cast<graph::LinkId>(a / 2));
    div[a % 2 == 0 ? l.a : l.b] += r.arc_flow[a];
    div[a % 2 == 0 ? l.b : l.a] -= r.arc_flow[a];
  }
  for (std::size_t i = 0; i < cs.size(); ++i) {
    div[cs[i].src] -= r.commodity_routed[i];
    div[cs[i].dst] += r.commodity_routed[i];
  }
  for (graph::NodeId v = 0; v < g.node_count(); ++v) EXPECT_NEAR(div[v], 0.0, 1e-7);
}

/// Solves with metrics on and returns how many runs gap-stopped.
std::uint64_t count_gap_stops(const graph::Graph& g, const std::vector<Commodity>& cs,
                              const McfOptions& o, McfResult* out) {
  const bool before = obs::enabled();
  obs::set_enabled(true);
  obs::reset_metrics();
  *out = max_concurrent_flow(g, cs, o);
  std::uint64_t stops = 0;
  for (const auto& [name, value] : obs::snapshot_metrics().counters)
    if (name == "mcf.gk.gap_stops") stops = value;
  obs::reset_metrics();
  obs::set_enabled(before);
  return stops;
}

/// The two-source fixture of the truncation test: 0 -> 3 and 1 -> 2 over
/// a 4-cycle with uneven capacities.
struct TwoSources {
  graph::Graph g;
  std::vector<Commodity> cs{{0, 3, 1.0}, {1, 2, 0.5}};
  TwoSources() {
    g.add_nodes(4);
    g.add_link(0, 1, 1.0);
    g.add_link(1, 2, 2.0);
    g.add_link(2, 3, 0.5);
    g.add_link(0, 3, 1.0);
  }
};

TEST(GargKoenemann, GapStopIsConvergedAndEpsTight) {
  // The stop rule ends the run at the first phase start whose best
  // bracket is eps-tight: converged, not truncated, and tighter than the
  // (1 - 3 eps) promise of a D(l) >= 1 finish.
  TwoSources in;
  McfResult r;
  ASSERT_EQ(count_gap_stops(in.g, in.cs, tight(), &r), 1u);
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.lambda_lower, 0.0);
  EXPECT_GE(r.lambda_lower * (1.0 + 0.05), r.lambda_upper);
  EXPECT_LE(r.lambda_lower, r.lambda_upper);
  EXPECT_EQ(r.phases, 228u);
  // The stop skips the final dual sweep: one tree per source per phase
  // start (the stopping one included) plus the stale regrowths.
  EXPECT_GE(r.dijkstra_runs, 2 * (r.phases + 1));
}

TEST(GargKoenemann, UpperBoundFlagOnlyControlsTheReport) {
  // The phase-start bracket drives the stop rule whether or not the upper
  // bound is reported, so the primal side and the counts are the same
  // bits either way; only a run that ends at D(l) >= 1 runs the final
  // sweep (one Dijkstra per source group).
  TwoSources two;
  // A multigraph on which GK's phase-start duals stay loose: at eps = 0.5
  // the run ends at D(l) >= 1 instead.
  graph::Graph loose;
  loose.add_nodes(6);
  for (auto [a, b, cap] : {std::tuple{0, 1, 1.1}, {1, 2, 0.7}, {0, 3, 0.86}, {3, 4, 1.5},
                           {0, 5, 1.73}, {4, 3, 1.44}, {2, 3, 1.01}, {1, 0, 1.63}})
    loose.add_link(a, b, cap);
  const std::vector<Commodity> loose_cs{{1, 4, 0.5}, {0, 4, 2.16}, {5, 0, 0.93}};
  struct Case {
    const graph::Graph* g;
    std::vector<Commodity> cs;
    double eps;
  };
  const std::vector<Case> cases{
      {&two.g, two.cs, 0.05},
      {&two.g, two.cs, 0.3},
      {&loose, loose_cs, 0.05},
      {&loose, loose_cs, 0.5},
  };
  std::size_t gap_stopped = 0, finished = 0;
  for (const Case& c : cases) {
    McfOptions on;
    on.epsilon = c.eps;
    McfOptions off = on;
    off.compute_upper_bound = false;
    McfResult with, without;
    std::uint64_t stops = count_gap_stops(*c.g, c.cs, on, &with);
    EXPECT_EQ(count_gap_stops(*c.g, c.cs, off, &without), stops);
    EXPECT_EQ(with.lambda_lower, without.lambda_lower);
    EXPECT_EQ(with.max_congestion, without.max_congestion);
    EXPECT_EQ(with.arc_flow, without.arc_flow);
    EXPECT_EQ(with.commodity_routed, without.commodity_routed);
    EXPECT_EQ(with.phases, without.phases);
    EXPECT_EQ(with.augmentations, without.augmentations);
    EXPECT_EQ(with.truncated, without.truncated);
    const std::uint64_t sweep = stops == 1 ? 0 : c.cs.size();  // one group per source
    EXPECT_EQ(with.dijkstra_runs, without.dijkstra_runs + sweep);
    EXPECT_TRUE(std::isfinite(with.lambda_upper));
    EXPECT_EQ(with.dual_length.size(), c.g->link_count() * 2);
    EXPECT_TRUE(std::isinf(without.lambda_upper));
    EXPECT_TRUE(without.dual_length.empty());
    (stops == 1 ? gap_stopped : finished) += 1;
  }
  // Both endings are covered.
  EXPECT_GE(gap_stopped, 1u);
  EXPECT_GE(finished, 1u);
}

TEST(GargKoenemann, StatsPopulated) {
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  g.add_link(1, 2);
  // Two sources and two sinks, so the instance reaches GK.
  auto r = max_concurrent_flow(g, {{0, 2, 1.0}, {2, 0, 1.0}}, tight());
  EXPECT_GT(r.phases, 0u);
  EXPECT_GT(r.augmentations, 0u);
  EXPECT_GT(r.dijkstra_runs, 0u);
}

}  // namespace
}  // namespace flattree::mcf
