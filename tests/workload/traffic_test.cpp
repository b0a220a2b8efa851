#include "workload/traffic.hpp"

#include <gtest/gtest.h>

#include <set>

namespace flattree::workload {
namespace {

Cluster cluster_of(std::initializer_list<ServerId> servers) {
  Cluster c;
  c.servers = servers;
  return c;
}

TEST(Broadcast, OneSourceToAllOthers) {
  util::Rng rng(1);
  Cluster c = cluster_of({3, 7, 9, 11});
  auto demands = broadcast_traffic(c, rng);
  ASSERT_EQ(demands.size(), 3u);
  ServerId hot = demands[0].src;
  std::set<ServerId> dsts;
  for (const auto& d : demands) {
    EXPECT_EQ(d.src, hot);
    EXPECT_NE(d.dst, hot);
    EXPECT_DOUBLE_EQ(d.demand, 1.0);
    dsts.insert(d.dst);
  }
  EXPECT_EQ(dsts.size(), 3u);
}

TEST(Incast, AllOthersToOneSink) {
  util::Rng rng(2);
  Cluster c = cluster_of({1, 2, 3, 4, 5});
  auto demands = incast_traffic(c, rng);
  ASSERT_EQ(demands.size(), 4u);
  ServerId hot = demands[0].dst;
  for (const auto& d : demands) {
    EXPECT_EQ(d.dst, hot);
    EXPECT_NE(d.src, hot);
  }
}

TEST(BroadcastIncast, HotSpotIsClusterMember) {
  util::Rng rng(3);
  Cluster c = cluster_of({10, 20, 30});
  auto b = broadcast_traffic(c, rng);
  EXPECT_TRUE(b[0].src == 10 || b[0].src == 20 || b[0].src == 30);
  auto i = incast_traffic(c, rng);
  EXPECT_TRUE(i[0].dst == 10 || i[0].dst == 20 || i[0].dst == 30);
}

TEST(BroadcastIncast, TooSmallClusterThrows) {
  util::Rng rng(4);
  Cluster c = cluster_of({5});
  EXPECT_THROW(broadcast_traffic(c, rng), std::invalid_argument);
  EXPECT_THROW(incast_traffic(c, rng), std::invalid_argument);
}

TEST(AllToAll, EveryOrderedPairOnce) {
  Cluster c = cluster_of({1, 2, 3});
  auto demands = all_to_all_traffic(c);
  ASSERT_EQ(demands.size(), 6u);
  std::set<std::pair<ServerId, ServerId>> pairs;
  for (const auto& d : demands) {
    EXPECT_NE(d.src, d.dst);
    pairs.insert({d.src, d.dst});
  }
  EXPECT_EQ(pairs.size(), 6u);
}

TEST(ClusterTraffic, ConcatenatesAcrossClusters) {
  util::Rng rng(5);
  std::vector<Cluster> clusters{cluster_of({0, 1, 2}), cluster_of({3, 4, 5})};
  auto bc = cluster_traffic(clusters, Pattern::Broadcast, rng);
  EXPECT_EQ(bc.size(), 4u);  // 2 per cluster
  auto aa = cluster_traffic(clusters, Pattern::AllToAll, rng);
  EXPECT_EQ(aa.size(), 12u);
  auto in = cluster_traffic(clusters, Pattern::Incast, rng);
  EXPECT_EQ(in.size(), 4u);
}

TEST(ClusterTraffic, DemandsStayWithinCluster) {
  util::Rng rng(6);
  std::vector<Cluster> clusters{cluster_of({0, 1, 2}), cluster_of({10, 11, 12})};
  for (auto pattern : {Pattern::Broadcast, Pattern::Incast, Pattern::AllToAll}) {
    for (const auto& d : cluster_traffic(clusters, pattern, rng)) {
      bool both_low = d.src <= 2 && d.dst <= 2;
      bool both_high = d.src >= 10 && d.dst >= 10;
      EXPECT_TRUE(both_low || both_high);
    }
  }
}

TEST(Permutation, NoFixedPointsAndFullCoverage) {
  util::Rng rng(7);
  auto demands = permutation_traffic(64, rng);
  ASSERT_EQ(demands.size(), 64u);
  std::set<ServerId> srcs, dsts;
  for (const auto& d : demands) {
    EXPECT_NE(d.src, d.dst);
    srcs.insert(d.src);
    dsts.insert(d.dst);
  }
  EXPECT_EQ(srcs.size(), 64u);
  EXPECT_EQ(dsts.size(), 64u);
}

TEST(Permutation, TinyCases) {
  util::Rng rng(8);
  auto demands = permutation_traffic(2, rng);
  ASSERT_EQ(demands.size(), 2u);
  EXPECT_NE(demands[0].src, demands[0].dst);
  EXPECT_THROW(permutation_traffic(1, rng), std::invalid_argument);
}

TEST(IncastPattern, DistinctSourcesOneSinkNoSelfPairs) {
  auto demands = incast_pattern(64, 12, /*seed=*/5);
  ASSERT_EQ(demands.size(), 12u);
  ServerId sink = demands[0].dst;
  std::set<ServerId> srcs;
  for (const auto& d : demands) {
    EXPECT_EQ(d.dst, sink);
    EXPECT_NE(d.src, sink);
    EXPECT_LT(d.src, 64u);
    EXPECT_DOUBLE_EQ(d.demand, 1.0);
    srcs.insert(d.src);
  }
  EXPECT_EQ(srcs.size(), 12u);  // sources are distinct
}

TEST(IncastPattern, PureFunctionOfSeed) {
  auto a = incast_pattern(64, 12, 5);
  auto b = incast_pattern(64, 12, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
  }
  // A different seed moves the sink or the source set.
  auto c = incast_pattern(64, 12, 6);
  bool differs = c[0].dst != a[0].dst;
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].src != c[i].src;
  EXPECT_TRUE(differs);
}

TEST(IncastPattern, FullFanInAndErrorCases) {
  auto all = incast_pattern(16, 15, 3);  // every other server sends
  EXPECT_EQ(all.size(), 15u);
  EXPECT_THROW(incast_pattern(1, 1, 0), std::invalid_argument);
  EXPECT_THROW(incast_pattern(16, 0, 0), std::invalid_argument);
  EXPECT_THROW(incast_pattern(16, 16, 0), std::invalid_argument);
}

}  // namespace
}  // namespace flattree::workload
