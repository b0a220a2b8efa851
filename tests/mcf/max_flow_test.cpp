#include "mcf/max_flow.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "check/certify.hpp"
#include "mcf/garg_koenemann.hpp"
#include "mcf/lp_exact.hpp"
#include "obs/metrics.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"
#include "workload/traffic.hpp"

namespace flattree::mcf {
namespace {

TEST(MaxFlow, SingleArc) {
  MaxFlow mf(2);
  mf.add_arc(0, 1, 3.5);
  EXPECT_DOUBLE_EQ(mf.solve(0, 1), 3.5);
}

TEST(MaxFlow, SeriesBottleneck) {
  MaxFlow mf(3);
  mf.add_arc(0, 1, 5.0);
  mf.add_arc(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 2), 2.0);
}

TEST(MaxFlow, ParallelPathsAdd) {
  MaxFlow mf(4);
  mf.add_arc(0, 1, 1.0);
  mf.add_arc(1, 3, 1.0);
  mf.add_arc(0, 2, 2.0);
  mf.add_arc(2, 3, 2.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 3), 3.0);
}

TEST(MaxFlow, ClassicResidualExample) {
  // Requires routing through the cross arc then undoing it.
  MaxFlow mf(4);
  mf.add_arc(0, 1, 1.0);
  mf.add_arc(0, 2, 1.0);
  mf.add_arc(1, 2, 1.0);
  mf.add_arc(1, 3, 1.0);
  mf.add_arc(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 3), 2.0);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow mf(3);
  mf.add_arc(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 2), 0.0);
}

TEST(MaxFlow, ArcFlowsConsistent) {
  MaxFlow mf(3);
  std::size_t a = mf.add_arc(0, 1, 2.0);
  std::size_t b = mf.add_arc(1, 2, 1.0);
  double total = mf.solve(0, 2);
  EXPECT_DOUBLE_EQ(total, 1.0);
  EXPECT_DOUBLE_EQ(mf.arc_flow(a), 1.0);
  EXPECT_DOUBLE_EQ(mf.arc_flow(b), 1.0);
}

TEST(MaxFlow, ResolveResetsState) {
  MaxFlow mf(3);
  mf.add_arc(0, 1, 2.0);
  mf.add_arc(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 2), 1.0);  // idempotent
  EXPECT_DOUBLE_EQ(mf.solve(0, 1), 2.0);  // different sink
}

TEST(MaxFlow, SetCapacityAppliesToTheNextSolve) {
  MaxFlow mf(3);
  mf.add_arc(0, 1, 2.0);
  std::size_t last = mf.add_arc(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 2), 1.0);
  mf.set_capacity(last, 5.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 2), 2.0);
  EXPECT_THROW(mf.set_capacity(last, -1.0), std::invalid_argument);
  EXPECT_THROW(mf.set_capacity(7, 1.0), std::out_of_range);
}

TEST(MaxFlow, SourceSideIsTheResidualReachableSet) {
  // 0 -> 1 is wide, 1 -> 2 the bottleneck, 3 hangs off 2: the min cut
  // separates {0, 1} from {2, 3}.
  MaxFlow mf(4);
  mf.add_arc(0, 1, 5.0);
  mf.add_arc(1, 2, 1.0);
  mf.add_arc(2, 3, 5.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 3), 1.0);
  EXPECT_EQ(mf.source_side(), (std::vector<std::uint8_t>{1, 1, 0, 0}));
}

TEST(MaxFlow, ErrorCases) {
  MaxFlow mf(2);
  EXPECT_THROW(mf.add_arc(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(mf.add_arc(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(mf.solve(0, 0), std::invalid_argument);
}

// -- the exact path of max_concurrent_flow -----------------------------------

/// Certifies `r` with every check that applies to an exact answer.
void expect_certified(const graph::Graph& g, const std::vector<Commodity>& cs,
                      const McfResult& r) {
  check::Report rep = check::certify(g, cs, r);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(r.cut_source_side.size(), g.node_count());
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.phases, 0u);
  EXPECT_EQ(r.augmentations, 0u);
  EXPECT_EQ(r.dijkstra_runs, 0u);
}

std::uint64_t counter(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

TEST(SingleSourceConcurrent, StarClosedForm) {
  graph::Graph g;
  g.add_nodes(5);
  for (graph::NodeId leaf = 1; leaf <= 4; ++leaf) g.add_link(0, leaf, 1.0);
  std::vector<Commodity> cs;
  for (graph::NodeId leaf = 1; leaf <= 4; ++leaf) cs.push_back({0, leaf, 1.0});
  auto r = max_concurrent_flow(g, cs);
  EXPECT_NEAR(r.lambda_lower, 1.0, 1e-12);
  EXPECT_NEAR(r.lambda_upper, 1.0, 1e-12);
  expect_certified(g, cs, r);
}

TEST(SingleSourceConcurrent, BinaryTreeBroadcast) {
  graph::Graph g;
  g.add_nodes(7);
  g.add_link(0, 1);
  g.add_link(0, 2);
  g.add_link(1, 3);
  g.add_link(1, 4);
  g.add_link(2, 5);
  g.add_link(2, 6);
  std::vector<Commodity> cs;
  for (graph::NodeId t = 1; t < 7; ++t) cs.push_back({0, t, 1.0});
  auto r = max_concurrent_flow(g, cs);
  EXPECT_NEAR(r.lambda_lower, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.lambda_upper, 1.0 / 3.0, 1e-12);
  expect_certified(g, cs, r);
}

TEST(SingleSourceConcurrent, MatchesExactLp) {
  graph::Graph g;
  g.add_nodes(5);
  g.add_link(0, 1, 1.0);
  g.add_link(0, 2, 2.0);
  g.add_link(1, 3, 1.0);
  g.add_link(2, 3, 1.0);
  g.add_link(2, 4, 0.5);
  g.add_link(3, 4, 1.0);
  std::vector<Commodity> cs{{0, 3, 1.0}, {0, 4, 2.0}};
  auto exact = max_concurrent_flow_exact(g, cs);
  ASSERT_TRUE(exact.solved);
  auto r = max_concurrent_flow(g, cs);
  EXPECT_NEAR(r.lambda_lower, exact.lambda, exact.lambda * 1e-6);
  expect_certified(g, cs, r);
}

TEST(SingleSourceConcurrent, FatTreeBroadcastMatchesExactLp) {
  // Fat-tree broadcast, single cluster: the exact answer is a zero-width
  // bracket around the LP optimum.
  topo::FatTree ft = topo::build_fat_tree(4);
  util::Rng rng(5);
  auto clusters = workload::make_clusters(16, 16, workload::Placement::Locality, 4, rng);
  auto demands = workload::cluster_traffic(clusters, workload::Pattern::Broadcast, rng);
  auto commodities = aggregate_to_switches(ft.topo, demands);
  ASSERT_EQ(group_by_source(commodities).size(), 1u);
  auto exact = max_concurrent_flow_exact(ft.topo.graph(), commodities, 80'000);
  ASSERT_TRUE(exact.solved);
  auto r = max_concurrent_flow(ft.topo.graph(), commodities);
  EXPECT_NEAR(r.lambda_lower, exact.lambda, exact.lambda * 1e-6);
  EXPECT_LE(r.lambda_lower, exact.lambda * (1 + 1e-9));
  EXPECT_GE(r.lambda_upper, exact.lambda * (1 - 1e-9));
  expect_certified(ft.topo.graph(), commodities, r);
}

TEST(SingleSourceConcurrent, UnreachableTargetThrows) {
  graph::Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 2, 1.0}}), std::invalid_argument);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 2, 1.0}, {1, 2, 1.0}}), std::invalid_argument);
}

TEST(SingleSourceConcurrent, ErrorCases) {
  graph::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1);
  EXPECT_THROW(max_concurrent_flow(g, {}), std::invalid_argument);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 1, -1.0}}), std::invalid_argument);
  EXPECT_THROW(exact_concurrent_flow(g, {{0, 1, 1.0}, {1, 0, 1.0}}, SharedEndpoint::Source),
               std::invalid_argument);
}

graph::Graph random_connected_graph(std::size_t nodes, std::size_t extra_links,
                                    util::Rng& rng) {
  graph::Graph g;
  g.add_nodes(nodes);
  for (graph::NodeId v = 1; v < nodes; ++v)
    g.add_link(v, static_cast<graph::NodeId>(rng.below(v)), 0.5 + rng.uniform() * 1.5);
  for (std::size_t i = 0; i < extra_links; ++i) {
    auto a = static_cast<graph::NodeId>(rng.below(nodes));
    auto b = static_cast<graph::NodeId>(rng.below(nodes));
    if (a != b) g.add_link(a, b, 0.5 + rng.uniform() * 1.5);
  }
  return g;
}

// Differential against the LP on seeded one-source and one-sink instances:
// lambda_lower is the optimum to 1e-6 and [lambda_lower, lambda_upper]
// brackets it.
TEST(ExactConcurrent, MatchesLpOnSeededOneSourceAndOneSinkInstances) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    util::Rng rng(seed * 104729 + 7);
    graph::Graph g = random_connected_graph(5 + rng.index(4), 3 + rng.index(5), rng);
    const auto n = static_cast<graph::NodeId>(g.node_count());
    const auto hub = static_cast<graph::NodeId>(rng.below(n));
    const bool incast = seed % 2 == 1;
    std::vector<Commodity> cs;
    const std::size_t count = 1 + rng.index(n - 1);
    for (std::size_t i = 0; i < count; ++i) {
      auto other = static_cast<graph::NodeId>(rng.below(n));
      if (other == hub) other = (other + 1) % n;
      const double demand = 0.5 + rng.uniform() * 2.0;
      cs.push_back(incast ? Commodity{other, hub, demand} : Commodity{hub, other, demand});
    }
    auto exact = max_concurrent_flow_exact(g, cs);
    ASSERT_TRUE(exact.solved) << "seed " << seed;
    auto r = max_concurrent_flow(g, cs);
    EXPECT_NEAR(r.lambda_lower, exact.lambda, exact.lambda * 1e-6) << "seed " << seed;
    EXPECT_LE(r.lambda_lower, exact.lambda * (1 + 1e-9)) << "seed " << seed;
    EXPECT_GE(r.lambda_upper, exact.lambda * (1 - 1e-9)) << "seed " << seed;
    // The one-sink cut holds the sources, not the sink.
    EXPECT_EQ(r.cut_source_side[hub], incast ? 0 : 1) << "seed " << seed;
    expect_certified(g, cs, r);
  }
}

TEST(ExactConcurrent, NewtonStepsPastASourceThatDoesNotBind) {
  // The source has capacity 10 to a hub, but the hub reaches the targets
  // through links of capacity 1: the first lambda (the source's cut, 10/4)
  // is infeasible, and one Newton step moves to the hub's cut (2/4).
  graph::Graph g;
  g.add_nodes(5);
  g.add_link(0, 1, 10.0);
  g.add_link(1, 2, 1.0);
  g.add_link(1, 3, 1.0);
  g.add_link(2, 4, 1.0);
  g.add_link(3, 4, 1.0);
  std::vector<Commodity> cs{{0, 2, 1.0}, {0, 3, 1.0}, {0, 4, 2.0}};

  bool before = obs::enabled();
  obs::set_enabled(true);
  obs::reset_metrics();
  auto r = max_concurrent_flow(g, cs);
  obs::MetricsSnapshot snap = obs::snapshot_metrics();
  obs::set_enabled(before);

  EXPECT_NEAR(r.lambda_lower, 0.5, 1e-12);
  EXPECT_NEAR(r.lambda_upper, 0.5, 1e-12);
  EXPECT_EQ(r.cut_source_side, (std::vector<std::uint8_t>{1, 1, 0, 0, 0}));
  EXPECT_GE(counter(snap, "mcf.maxflow.max_flows"), 2u);
  EXPECT_EQ(counter(snap, "mcf.maxflow.solves"), 1u);
  EXPECT_EQ(counter(snap, "mcf.gk.solves"), 0u);
  expect_certified(g, cs, r);
}

TEST(ExactConcurrent, IncastEqualsBroadcastOnFatTreeK8) {
  // Full-duplex symmetric links: incast to a hot spot is broadcast from it
  // run backwards, so the optimum is the same.
  topo::FatTree ft = topo::build_fat_tree(8);
  util::Rng rng(11);
  auto clusters = workload::make_clusters(128, 64, workload::Placement::NoLocality, 16, rng);
  util::Rng r1(21), r2(21);  // same hot-spot draw
  auto bc = aggregate_to_switches(ft.topo, workload::broadcast_traffic(clusters[0], r1));
  auto in = aggregate_to_switches(ft.topo, workload::incast_traffic(clusters[0], r2));
  ASSERT_EQ(group_by_source(bc).size(), 1u);
  ASSERT_GT(group_by_source(in).size(), 1u);
  auto lb = max_concurrent_flow(ft.topo.graph(), bc);
  auto li = max_concurrent_flow(ft.topo.graph(), in);
  EXPECT_GT(lb.lambda_lower, 0.0);
  EXPECT_NEAR(li.lambda_lower, lb.lambda_lower, lb.lambda_lower * 1e-12);
  EXPECT_NEAR(li.lambda_upper, lb.lambda_upper, lb.lambda_upper * 1e-12);
  expect_certified(ft.topo.graph(), bc, lb);
  expect_certified(ft.topo.graph(), in, li);
}

TEST(ExactConcurrent, GkBudgetsDoNotApply) {
  // epsilon and max_augmentations steer GK only: the exact
  // answer is the same, untruncated, under any of them.
  graph::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 1.0);
  g.add_link(0, 3, 1.0);
  g.add_link(3, 2, 1.0);
  std::vector<Commodity> cs{{0, 2, 1.0}, {0, 1, 1.0}};
  auto base = max_concurrent_flow(g, cs);
  McfOptions o;
  o.epsilon = 0.9;
  o.max_augmentations = 1;
  o.compute_upper_bound = false;
  auto r = max_concurrent_flow(g, cs, o);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.lambda_lower, base.lambda_lower);
  EXPECT_EQ(r.lambda_upper, base.lambda_upper);
  EXPECT_TRUE(std::isfinite(r.lambda_upper));
  expect_certified(g, cs, r);
}

}  // namespace
}  // namespace flattree::mcf
