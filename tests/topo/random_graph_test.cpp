#include "topo/random_graph.hpp"

#include <gtest/gtest.h>

#include <map>

#include "graph/bfs.hpp"
#include "topo/apl.hpp"
#include "topo/topo_helpers.hpp"

namespace flattree::topo {
namespace {

TEST(RandomSimplePairing, RegularDegreesNoSelfNoParallel) {
  util::Rng rng(1);
  std::vector<std::uint32_t> stubs(20, 4);
  auto pairs = random_simple_pairing(stubs, rng);
  EXPECT_EQ(pairs.size(), 40u);
  std::vector<std::uint32_t> degree(20, 0);
  std::map<std::pair<NodeId, NodeId>, int> seen;
  for (auto [a, b] : pairs) {
    EXPECT_NE(a, b);
    ++degree[a];
    ++degree[b];
    auto key = std::minmax(a, b);
    int prior = seen[{key.first, key.second}]++;
    EXPECT_EQ(prior, 0) << "parallel link";
  }
  for (auto d : degree) EXPECT_EQ(d, 4u);
}

TEST(RandomSimplePairing, OddStubSumLeavesOneIdle) {
  util::Rng rng(2);
  std::vector<std::uint32_t> stubs{3, 2, 2};  // sum 7
  auto pairs = random_simple_pairing(stubs, rng);
  EXPECT_EQ(pairs.size(), 3u);
}

TEST(RandomSimplePairing, HeterogeneousStubs) {
  util::Rng rng(3);
  std::vector<std::uint32_t> stubs{1, 2, 3, 4, 2, 2};
  auto pairs = random_simple_pairing(stubs, rng);
  std::vector<std::uint32_t> degree(6, 0);
  for (auto [a, b] : pairs) {
    ++degree[a];
    ++degree[b];
  }
  for (std::size_t v = 0; v < 6; ++v) EXPECT_LE(degree[v], stubs[v]);
  EXPECT_EQ(pairs.size(), 7u);  // sum 14 / 2
}

TEST(RandomSimplePairing, ZeroStubsEverywhere) {
  util::Rng rng(4);
  std::vector<std::uint32_t> stubs(5, 0);
  EXPECT_TRUE(random_simple_pairing(stubs, rng).empty());
}

TEST(RandomSimplePairing, DifferentSeedsDifferentGraphs) {
  std::vector<std::uint32_t> stubs(16, 3);
  util::Rng r1(10), r2(20);
  auto p1 = random_simple_pairing(stubs, r1);
  auto p2 = random_simple_pairing(stubs, r2);
  EXPECT_NE(p1, p2);
}

class JellyfishParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(JellyfishParam, SameEquipmentAsFatTree) {
  const std::uint32_t k = GetParam();
  util::Rng rng(k);
  Topology t = build_jellyfish_like_fat_tree(k, rng);
  auto counts = t.kind_counts();
  EXPECT_EQ(counts[0], k * k / 4);
  EXPECT_EQ(counts[1], k * k / 2);
  EXPECT_EQ(counts[2], k * k / 2);
  EXPECT_EQ(t.server_count(), k * k * k / 4);
}

TEST_P(JellyfishParam, NearUniformServerSpread) {
  const std::uint32_t k = GetParam();
  util::Rng rng(k + 1);
  Topology t = build_jellyfish_like_fat_tree(k, rng);
  auto w = t.servers_per_switch();
  std::uint32_t lo = ~0u, hi = 0;
  for (auto c : w) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST_P(JellyfishParam, ValidAndConnected) {
  const std::uint32_t k = GetParam();
  util::Rng rng(k + 2);
  Topology t = build_jellyfish_like_fat_tree(k, rng);
  EXPECT_NO_THROW(t.validate());
}

TEST_P(JellyfishParam, AllPortsUsedUpToParity) {
  const std::uint32_t k = GetParam();
  util::Rng rng(k + 3);
  Topology t = build_jellyfish_like_fat_tree(k, rng);
  std::size_t total_used = 0;
  for (graph::NodeId v = 0; v < t.switch_count(); ++v) {
    EXPECT_LE(used_ports(t, v), k);
    total_used += used_ports(t, v);
  }
  std::size_t budget = t.switch_count() * k;
  EXPECT_GE(total_used + 1, budget);  // at most one idle port (odd stub sum)
}

TEST_P(JellyfishParam, ShorterPathsThanFatTree) {
  const std::uint32_t k = GetParam();
  util::Rng rng(k + 4);
  Topology rg = build_jellyfish_like_fat_tree(k, rng);
  FatTree ft = build_fat_tree(k);
  EXPECT_LT(server_apl(rg).average, server_apl(ft.topo).average);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JellyfishParam, ::testing::Values(4u, 6u, 8u, 12u));

TEST(Jellyfish, RejectsBadK) {
  util::Rng rng(1);
  EXPECT_THROW(build_jellyfish_like_fat_tree(3, rng), std::invalid_argument);
  EXPECT_THROW(build_jellyfish_like_fat_tree(2, rng), std::invalid_argument);
}

}  // namespace
}  // namespace flattree::topo
