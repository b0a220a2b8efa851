// Incremental APL must be *bitwise* equal to the cold computation — same
// mean bits, same pair count, same max — across failure sweeps, because
// both sides fold the same integer terms exactly in uint64 and divide the
// same way (see src/inc/apl.hpp).

#include "inc/apl.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "graph/metrics.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace flattree::inc {
namespace {

using graph::Graph;
using graph::LinkId;

void expect_bitwise_equal(const graph::AplResult& a, const graph::AplResult& b,
                          const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.average), std::bit_cast<std::uint64_t>(b.average))
      << what << ": average " << a.average << " vs " << b.average;
  EXPECT_EQ(a.pairs, b.pairs) << what;
  EXPECT_EQ(a.max_dist, b.max_dist) << what;
}

TEST(IncApl, ServerAplMatchesTopoBitwise) {
  topo::FatTree ft = topo::build_fat_tree(4);
  DynamicApsp engine(ft.topo.graph());
  expect_bitwise_equal(inc::server_apl(engine, ft.topo), topo::server_apl(ft.topo),
                       "healthy fat-tree");
}

TEST(IncApl, ServerAplSubsetMatchesTopoBitwise) {
  topo::FatTree ft = topo::build_fat_tree(4);
  DynamicApsp engine(ft.topo.graph());
  std::vector<topo::ServerId> pod0;
  for (topo::ServerId s = 0; s < ft.params.servers_per_pod(); ++s) pod0.push_back(s);
  expect_bitwise_equal(inc::server_apl_subset(engine, ft.topo, pod0),
                       topo::server_apl_subset(ft.topo, pod0), "pod subset");
}

// A failure sweep: kill random switch links step by step, retarget, and
// compare the incremental APL against a cold weighted_apl on the same
// degraded graph. Both sides must agree bit for bit at every level (or
// both must throw the same disconnection error).
TEST(IncApl, FailureSweepStaysBitwiseEqual) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    topo::FatTree ft = topo::build_fat_tree(4);
    auto weight = ft.topo.servers_per_switch();
    Graph target = ft.topo.graph();
    DynamicApsp engine(target);
    util::Rng rng(100 + seed);

    for (int level = 0; level < 6; ++level) {
      std::vector<LinkId> live;
      for (LinkId id = 0; id < target.link_count(); ++id)
        if (target.link_live(id)) live.push_back(id);
      target.remove_link(live[rng.index(live.size())]);
      engine.retarget(target);

      bool cold_throws = false;
      graph::AplResult cold{};
      try {
        cold = graph::weighted_apl(target, weight, 2, 2);
      } catch (const std::runtime_error&) {
        cold_throws = true;
      }
      if (cold_throws) {
        EXPECT_THROW(inc::weighted_apl(engine, weight, 2, 2), std::runtime_error)
            << "seed " << seed << " level " << level;
        break;  // stay on connected sweeps after the first disconnect
      }
      graph::AplResult fast = inc::weighted_apl(engine, weight, 2, 2);
      expect_bitwise_equal(fast, cold, "failure sweep");
    }
  }
}

// Healing back to the healthy topology must also restore the exact healthy
// numbers (restores reuse tombstoned slots; distances repair upward).
TEST(IncApl, HealedSweepRecoversHealthyBits) {
  topo::FatTree ft = topo::build_fat_tree(4);
  auto weight = ft.topo.servers_per_switch();
  graph::AplResult healthy = topo::server_apl(ft.topo);

  Graph target = ft.topo.graph();
  DynamicApsp engine(target);
  util::Rng rng(42);
  std::vector<LinkId> dropped;
  for (int i = 0; i < 4; ++i) {
    std::vector<LinkId> live;
    for (LinkId id = 0; id < target.link_count(); ++id)
      if (target.link_live(id)) live.push_back(id);
    LinkId pick = live[rng.index(live.size())];
    target.remove_link(pick);
    dropped.push_back(pick);
  }
  engine.retarget(target);

  for (auto it = dropped.rbegin(); it != dropped.rend(); ++it) target.restore_link(*it);
  engine.retarget(target);
  expect_bitwise_equal(inc::server_apl(engine, ft.topo), healthy, "healed");
}

TEST(IncApl, OverflowGuardMatchesCold) {
  // (sum of weights)^2 past 2^64: both paths refuse before summing.
  Graph g(3);
  g.add_link(0, 1);
  g.add_link(1, 2);
  DynamicApsp engine(g);
  std::vector<std::uint32_t> huge{~std::uint32_t{0}, 0, ~std::uint32_t{0}};
  EXPECT_THROW(graph::weighted_apl(g, huge, 2, 2), std::overflow_error);
  EXPECT_THROW(inc::weighted_apl(engine, huge, 2, 2), std::overflow_error);
}

TEST(IncApl, WeightSizeMismatchThrows) {
  topo::FatTree ft = topo::build_fat_tree(4);
  DynamicApsp engine(ft.topo.graph());
  std::vector<std::uint32_t> short_weight(3, 1);
  EXPECT_THROW(inc::weighted_apl(engine, short_weight, 2, 2), std::invalid_argument);
}

}  // namespace
}  // namespace flattree::inc
