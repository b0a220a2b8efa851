#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace flattree::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.below(bound)];
  for (std::uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], draws / static_cast<int>(bound), draws / 100);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(41);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // probability of identity is ~1/50!
}

TEST(Rng, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(42), mix64(42));
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Rng, SubstreamIsPureFunctionOfSeedAndStream) {
  Rng a = Rng::substream(42, 7);
  Rng b = Rng::substream(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SubstreamsDecorrelated) {
  // Different stream indices (and different seeds) must give different
  // sequences; adjacent indices are the common parallel-loop case.
  Rng s0 = Rng::substream(42, 0);
  Rng s1 = Rng::substream(42, 1);
  Rng other_seed = Rng::substream(43, 0);
  int equal01 = 0, equal_seed = 0;
  for (int i = 0; i < 64; ++i) {
    std::uint64_t a = s0();
    if (a == s1()) ++equal01;
    if (a == other_seed()) ++equal_seed;
  }
  EXPECT_EQ(equal01, 0);
  EXPECT_EQ(equal_seed, 0);
}

}  // namespace
}  // namespace flattree::util
