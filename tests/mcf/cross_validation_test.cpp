// Cross-validation: the Garg-Koenemann FPTAS against the exact simplex LP
// on randomized small instances — the correctness anchor for all
// throughput experiments.

#include <gtest/gtest.h>

#include <algorithm>

#include "mcf/garg_koenemann.hpp"
#include "mcf/lp_exact.hpp"
#include "util/rng.hpp"

namespace flattree::mcf {
namespace {

graph::Graph random_connected_graph(std::size_t nodes, std::size_t extra_links,
                                    util::Rng& rng) {
  graph::Graph g;
  g.add_nodes(nodes);
  // Random spanning tree first.
  for (graph::NodeId v = 1; v < nodes; ++v)
    g.add_link(v, static_cast<graph::NodeId>(rng.below(v)),
               0.5 + rng.uniform() * 1.5);
  for (std::size_t i = 0; i < extra_links; ++i) {
    graph::NodeId a = static_cast<graph::NodeId>(rng.below(nodes));
    graph::NodeId b = static_cast<graph::NodeId>(rng.below(nodes));
    if (a != b) g.add_link(a, b, 0.5 + rng.uniform() * 1.5);
  }
  return g;
}

class CrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(CrossValidation, GkBracketsExactOptimum) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  graph::Graph g = random_connected_graph(5 + rng.index(3), 4, rng);
  std::vector<Commodity> cs;
  std::size_t count = 1 + rng.index(3);
  for (std::size_t i = 0; i < count; ++i) {
    graph::NodeId a = static_cast<graph::NodeId>(rng.below(g.node_count()));
    graph::NodeId b = static_cast<graph::NodeId>(rng.below(g.node_count()));
    if (a == b) b = (b + 1) % static_cast<graph::NodeId>(g.node_count());
    cs.push_back({a, b, 0.5 + rng.uniform() * 2.0});
  }
  // A draw whose commodities share a source or a sink would be solved
  // exactly; the reverse of the first commodity gives it two sources and
  // two sinks, so every seed reaches GK.
  auto shared = [&](NodeId Commodity::*end) {
    return std::all_of(cs.begin(), cs.end(),
                       [&](const Commodity& c) { return c.*end == cs.front().*end; });
  };
  if (shared(&Commodity::src) || shared(&Commodity::dst))
    cs.push_back({cs.front().dst, cs.front().src, cs.front().demand});

  auto exact = max_concurrent_flow_exact(g, cs);
  ASSERT_TRUE(exact.solved);

  McfOptions opt;
  opt.epsilon = 0.05;
  auto gk = max_concurrent_flow(g, cs, opt);
  ASSERT_GT(gk.phases, 0u);  // the GK path ran

  // Lower bound is feasible, upper bound is valid, and both are close.
  EXPECT_LE(gk.lambda_lower, exact.lambda * (1 + 1e-6));
  EXPECT_GE(gk.lambda_upper, exact.lambda * (1 - 1e-6));
  EXPECT_GE(gk.lambda_lower, exact.lambda * (1.0 - 3.2 * opt.epsilon));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation, ::testing::Range(0, 12));

TEST(CrossValidation, SingleSourceBroadcastTree) {
  // Binary-tree-ish broadcast: exact LP vs the one-source max-flow path.
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
  auto exact = max_concurrent_flow_exact(g, cs);
  ASSERT_TRUE(exact.solved);
  // Links (0,1) and (0,2) each carry 3*lambda -> lambda = 1/3.
  EXPECT_NEAR(exact.lambda, 1.0 / 3.0, 1e-7);
  McfOptions opt;
  opt.epsilon = 0.05;
  auto gk = max_concurrent_flow(g, cs, opt);
  EXPECT_NEAR(gk.lambda_lower, exact.lambda, exact.lambda * 0.16);
}

}  // namespace
}  // namespace flattree::mcf
