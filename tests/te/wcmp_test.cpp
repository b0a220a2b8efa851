#include "te/wcmp.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "check/te_check.hpp"
#include "core/flat_tree.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "routing/ksp_routing.hpp"
#include "topo/fat_tree.hpp"

namespace flattree::te {
namespace {

std::uint64_t weight_sum(const std::vector<std::uint32_t>& w) {
  return std::accumulate(w.begin(), w.end(), std::uint64_t{0});
}

TEST(QuantizeWeights, SumsToBudgetAndTracksShares) {
  auto w = quantize_weights({3.0, 1.0}, 64);
  EXPECT_EQ(w, (std::vector<std::uint32_t>{48, 16}));
  w = quantize_weights({1.0, 1.0, 1.0}, 64);
  EXPECT_EQ(weight_sum(w), 64u);
  // Largest remainder: 64/3 = 21.33 each; the leftover unit goes to the
  // lowest index on the remainder tie.
  EXPECT_EQ(w, (std::vector<std::uint32_t>{22, 21, 21}));
}

TEST(QuantizeWeights, ZeroShareStaysZero) {
  auto w = quantize_weights({5.0, 0.0, 3.0}, 64);
  EXPECT_EQ(weight_sum(w), 64u);
  EXPECT_EQ(w[1], 0u);
  // Negative shares are clamped to zero, not wrapped.
  w = quantize_weights({5.0, -2.0, 3.0}, 16);
  EXPECT_EQ(weight_sum(w), 16u);
  EXPECT_EQ(w[1], 0u);
}

TEST(QuantizeWeights, TinyShareNeverRoundsAllToZero) {
  // One dominant and one tiny share at a small budget: the tiny share may
  // round to zero, but the total must still hit the budget exactly.
  auto w = quantize_weights({1000.0, 1e-9}, 4);
  EXPECT_EQ(weight_sum(w), 4u);
  EXPECT_EQ(w[0], 4u);
}

TEST(QuantizeWeights, ErrorCases) {
  EXPECT_THROW(quantize_weights({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(quantize_weights({0.0, 0.0}, 64), std::invalid_argument);
  EXPECT_THROW(quantize_weights({-1.0}, 64), std::invalid_argument);
}

// Adversarial shares: every pathology below once risked the uint64
// underflow path (assigned > budget -> `budget - assigned` wraps and the
// drain loop hands out ~2^64 weight) or UB in the double->uint32 cast.
// The invariant under test is exact conservation, always.
TEST(QuantizeWeights, AdversarialSharesStillConserveBudget) {
  // Share sum overflows to +inf: every fraction degrades to NaN or 0, so
  // the whole budget flows through the deterministic handout loops.
  auto w = quantize_weights({1e308, 1e308}, 5);
  EXPECT_EQ(weight_sum(w), 5u);
  EXPECT_GT(w[0], 0u);
  EXPECT_GT(w[1], 0u);

  // A single +inf share alongside a finite one (inf/inf -> NaN fraction).
  w = quantize_weights({std::numeric_limits<double>::infinity(), 1.0}, 64);
  EXPECT_EQ(weight_sum(w), 64u);

  // Denormals: fractions stay exact (0.5 each) after the divide-first
  // rewrite; a scale-first formulation would overflow or flush to zero.
  w = quantize_weights({5e-324, 5e-324}, 64);
  EXPECT_EQ(weight_sum(w), 64u);
  EXPECT_EQ(w[0], 32u);
  EXPECT_EQ(w[1], 32u);

  // Huge spread between shares at a large budget.
  w = quantize_weights({std::numeric_limits<double>::max(), 1e-300}, 1u << 30);
  EXPECT_EQ(weight_sum(w), std::uint64_t{1} << 30);

  // NaN share: the total goes NaN, which the no-positive-share guard
  // already rejects (fail loudly, never quantize garbage).
  EXPECT_THROW(quantize_weights({std::numeric_limits<double>::quiet_NaN(), 1.0}, 8),
               std::invalid_argument);
}

TEST(QuantizeWeights, ManyTinySharesAtSmallBudget) {
  // More positive shares than budget units: floors are all zero and the
  // remainder handout must stop exactly at the budget.
  std::vector<double> shares(97, 1e-12);
  auto w = quantize_weights(shares, 13);
  EXPECT_EQ(weight_sum(w), 13u);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_LE(w[i], 1u) << i;
}

TEST(CompileWcmpPaths, EcmpMultiplicitiesOnFatTree) {
  topo::FatTree ft = topo::build_fat_tree(4);
  routing::EcmpRouting ecmp(ft.topo.graph());
  auto pairs = routing::all_server_pairs(ft.topo);
  WeightedFib fib = compile_wcmp_paths(ft.topo, ecmp, pairs);
  // Every entry conserves the budget and carries no zero-weight rules
  // (validate_weighted_fib checks both plus loop-freedom).
  check::Report r = check::validate_weighted_fib(ft.topo, fib, pairs);
  EXPECT_TRUE(r.ok()) << r.to_string();
  // ECMP on a fat-tree is symmetric: an edge switch splits its upward
  // entries evenly over both aggregation links.
  EXPECT_GT(fib.rule_count(), fib.entry_count());
}

TEST(CompileWcmpPaths, DeterministicAcrossRebuilds) {
  core::FlatTreeConfig cfg;
  cfg.k = 6;
  core::FlatTreeNetwork net(cfg);
  topo::Topology t = net.build(core::Mode::GlobalRandom);
  auto pairs = routing::all_server_pairs(t);
  routing::EcmpRouting e1(t.graph());
  routing::EcmpRouting e2(t.graph());
  WeightedFib a = compile_wcmp_paths(t, e1, pairs);
  WeightedFib b = compile_wcmp_paths(t, e2, pairs);
  ASSERT_EQ(a.rule_count(), b.rule_count());
  ASSERT_EQ(a.total_weight(), b.total_weight());
  for (NodeId at = 0; at < t.switch_count(); ++at)
    for (NodeId dst : a.destinations(at)) {
      const auto& ha = a.next_hops(at, dst);
      const auto& hb = b.next_hops(at, dst);
      ASSERT_EQ(ha.size(), hb.size());
      for (std::size_t i = 0; i < ha.size(); ++i) {
        EXPECT_EQ(ha[i].link, hb[i].link);
        EXPECT_EQ(ha[i].weight, hb[i].weight);
      }
    }
}

}  // namespace
}  // namespace flattree::te
