#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "graph/bfs.hpp"
#include "util/rng.hpp"

namespace flattree::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.link_count(), 0u);
}

TEST(Graph, AddNodesReturnsFirstId) {
  Graph g;
  EXPECT_EQ(g.add_nodes(3), 0u);
  EXPECT_EQ(g.add_nodes(2), 3u);
  EXPECT_EQ(g.node_count(), 5u);
}

TEST(Graph, AddLinkAndAccessors) {
  Graph g(3);
  LinkId l = g.add_link(0, 2, 2.5);
  EXPECT_EQ(g.link_count(), 1u);
  EXPECT_EQ(g.link(l).a, 0u);
  EXPECT_EQ(g.link(l).b, 2u);
  EXPECT_DOUBLE_EQ(g.link(l).capacity, 2.5);
  EXPECT_EQ(g.link(l).other(0), 2u);
  EXPECT_EQ(g.link(l).other(2), 0u);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_THROW(g.add_link(1, 1), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 2), std::out_of_range);
}

TEST(Graph, RejectsNonPositiveCapacity) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_link(0, 1, -1.0), std::invalid_argument);
}

TEST(Graph, NeighborsAndDegree) {
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(0, 2);
  g.add_link(0, 3);
  g.add_link(1, 2);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(3), 1u);
  std::size_t count = 0;
  bool saw1 = false, saw2 = false, saw3 = false;
  for (const Arc& arc : g.neighbors(0)) {
    ++count;
    saw1 |= arc.to == 1;
    saw2 |= arc.to == 2;
    saw3 |= arc.to == 3;
  }
  EXPECT_EQ(count, 3u);
  EXPECT_TRUE(saw1 && saw2 && saw3);
}

TEST(Graph, ParallelLinksAllowedAndCounted) {
  Graph g(2);
  g.add_link(0, 1, 1.0);
  g.add_link(0, 1, 2.0);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.connected(0, 1));
  EXPECT_DOUBLE_EQ(g.capacity_between(0, 1), 3.0);
}

TEST(Graph, ConnectedPredicate) {
  Graph g(3);
  g.add_link(0, 1);
  EXPECT_TRUE(g.connected(0, 1));
  EXPECT_TRUE(g.connected(1, 0));
  EXPECT_FALSE(g.connected(0, 2));
}

TEST(Graph, CsrRebuildsAfterMutation) {
  Graph g(3);
  g.add_link(0, 1);
  EXPECT_EQ(g.degree(0), 1u);  // builds CSR
  g.add_link(0, 2);            // invalidates CSR
  EXPECT_EQ(g.degree(0), 2u);
  g.add_nodes(1);
  g.add_link(0, 3);
  EXPECT_EQ(g.degree(0), 3u);
}

TEST(Graph, ArcLinkIdsMatch) {
  Graph g(3);
  LinkId l0 = g.add_link(0, 1);
  LinkId l1 = g.add_link(1, 2);
  for (const Arc& arc : g.neighbors(1)) {
    if (arc.to == 0) EXPECT_EQ(arc.link, l0);
    if (arc.to == 2) EXPECT_EQ(arc.link, l1);
  }
}

TEST(Graph, NeighborsOutOfRangeThrows) {
  Graph g(1);
  EXPECT_THROW(g.neighbors(1), std::out_of_range);
}

// -- tombstones / CSR patching ----------------------------------------------

// Sorted (neighbor, link) multiset at `node`, for order-insensitive compares.
std::vector<std::pair<NodeId, LinkId>> arcs_of(const Graph& g, NodeId node) {
  std::vector<std::pair<NodeId, LinkId>> out;
  for (const Arc& arc : g.neighbors(node)) out.emplace_back(arc.to, arc.link);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(GraphEdits, RemoveHidesLinkAndKeepsSlot) {
  Graph g(3);
  LinkId l01 = g.add_link(0, 1);
  LinkId l12 = g.add_link(1, 2);
  g.ensure_csr();  // build once so the removal exercises the patch path
  g.remove_link(l01);
  EXPECT_EQ(g.link_count(), 2u);
  EXPECT_EQ(g.live_link_count(), 1u);
  EXPECT_FALSE(g.link_live(l01));
  EXPECT_TRUE(g.link_live(l12));
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_FALSE(g.connected(0, 1));
  EXPECT_TRUE(g.connected(1, 2));
  // The slot survives: endpoints and capacity remain readable.
  EXPECT_EQ(g.link(l01).a, 0u);
  EXPECT_EQ(g.link(l01).b, 1u);
}

TEST(GraphEdits, RestoreRevivesLink) {
  Graph g(3);
  LinkId l01 = g.add_link(0, 1, 2.0);
  g.add_link(1, 2);
  g.ensure_csr();
  g.remove_link(l01);
  g.ensure_csr();
  g.restore_link(l01);
  EXPECT_EQ(g.live_link_count(), 2u);
  EXPECT_TRUE(g.link_live(l01));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_TRUE(g.connected(0, 1));
  EXPECT_DOUBLE_EQ(g.capacity_between(0, 1), 2.0);
}

TEST(GraphEdits, RemoveRestorePreconditions) {
  Graph g(2);
  LinkId l = g.add_link(0, 1);
  EXPECT_THROW(g.remove_link(5), std::out_of_range);
  EXPECT_THROW(g.restore_link(5), std::out_of_range);
  EXPECT_THROW(g.restore_link(l), std::logic_error);  // still live
  g.remove_link(l);
  EXPECT_THROW(g.remove_link(l), std::logic_error);  // already removed
  g.restore_link(l);
  EXPECT_THROW(g.restore_link(l), std::logic_error);
}

TEST(GraphEdits, CopyAndMoveKeepLiveness) {
  Graph g(3);
  LinkId l0 = g.add_link(0, 1);
  g.add_link(1, 2);
  g.remove_link(l0);
  Graph c = g;
  EXPECT_EQ(c.live_link_count(), 1u);
  EXPECT_FALSE(c.link_live(l0));
  EXPECT_EQ(arcs_of(c, 1), arcs_of(g, 1));
  Graph m = std::move(c);
  EXPECT_EQ(m.live_link_count(), 1u);
  EXPECT_FALSE(m.link_live(l0));
}

// The central patch-correctness property: after any remove/restore/add
// sequence, adjacency must equal a freshly built graph holding exactly the
// live links.
TEST(GraphEdits, PatchedCsrMatchesFreshBuild) {
  const std::size_t n = 24;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto rnd = [&state](std::uint64_t mod) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % mod;
  };
  Graph g(n);
  std::vector<LinkId> ids;
  for (std::size_t i = 0; i < 60; ++i) {
    NodeId a = static_cast<NodeId>(rnd(n));
    NodeId b = static_cast<NodeId>(rnd(n));
    if (a == b) continue;
    ids.push_back(g.add_link(a, b, 1.0 + static_cast<double>(rnd(4))));
  }
  g.ensure_csr();
  for (int round = 0; round < 40; ++round) {
    LinkId pick = ids[rnd(ids.size())];
    if (g.link_live(pick))
      g.remove_link(pick);
    else
      g.restore_link(pick);
    // Rebuild from scratch with only the live links and compare adjacency.
    Graph fresh(n);
    std::vector<LinkId> fresh_of(g.link_count(), kInvalidLink);
    for (LinkId id = 0; id < g.link_count(); ++id) {
      if (!g.link_live(id)) continue;
      const Link& l = g.link(id);
      fresh_of[id] = fresh.add_link(l.a, l.b, l.capacity);
    }
    for (NodeId v = 0; v < n; ++v) {
      auto got = arcs_of(g, v);
      for (auto& [to, id] : got) id = fresh_of[id];
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, arcs_of(fresh, v)) << "node " << v << " round " << round;
    }
    EXPECT_EQ(g.live_link_count(), fresh.link_count());
  }
}

// add_link after liveness edits forces the full-rebuild path; adjacency
// must still be exact.
TEST(GraphEdits, AddAfterRemoveRebuildsCorrectly) {
  Graph g(4);
  LinkId l01 = g.add_link(0, 1);
  g.add_link(1, 2);
  g.ensure_csr();
  g.remove_link(l01);
  LinkId l23 = g.add_link(2, 3);
  EXPECT_EQ(g.live_link_count(), 2u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.connected(2, 3));
  EXPECT_TRUE(g.link_live(l23));
  g.restore_link(l01);
  EXPECT_TRUE(g.connected(0, 1));
  EXPECT_EQ(g.degree(1), 2u);
}

// Many flips at once (past the patch threshold) must fall back to a full
// rebuild and still be exact.
TEST(GraphEdits, LargeDeltaFallsBackToFullRebuild) {
  const std::size_t n = 10;
  Graph g(n);
  std::vector<LinkId> ids;
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b) ids.push_back(g.add_link(a, b));
  g.ensure_csr();
  for (LinkId id : ids) g.remove_link(id);  // 45 flips > max(16, 45/8)
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(g.degree(v), 0u);
  for (LinkId id : ids) g.restore_link(id);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(g.degree(v), n - 1);
}

// Concurrency regression (label `graph`, run by the tsan preset). The
// lazy-CSR double-checked lock must publish a *patched* index to readers
// that race on the first neighbors() call after a remove/restore. Before
// the fix, only add_link invalidated the guard; remove_link left
// csr_valid_ stale so concurrent readers could see the dead link. The
// mutation itself happens-before the reader threads (thread creation),
// per the documented contract.
TEST(GraphEdits, ConcurrentReadAfterMutateIsRaceFree) {
  util::Rng rng(13);
  Graph g(24);
  for (std::size_t i = 0; i < 60; ++i) {
    NodeId a = static_cast<NodeId>(rng.below(24));
    NodeId b = static_cast<NodeId>(rng.below(24));
    if (a != b) g.add_link(a, b);
  }
  g.ensure_csr();  // build once so the edit takes the patch path

  std::vector<LinkId> live;
  for (LinkId id = 0; id < g.link_count(); ++id)
    if (g.link_live(id)) live.push_back(id);

  for (int round = 0; round < 8; ++round) {
    LinkId flip = live[rng.index(live.size())];
    if (g.link_live(flip))
      g.remove_link(flip);
    else
      g.restore_link(flip);
    // Readers race each other on the lazily patched CSR (the mutation
    // above is sequenced before the threads start).
    auto reader = [&g]() {
      for (NodeId s = 0; s < g.node_count(); s += 3) {
        auto dist = bfs_distances(g, s);
        ASSERT_EQ(dist.size(), g.node_count());
      }
    };
    std::thread t1(reader), t2(reader), t3(reader);
    t1.join();
    t2.join();
    t3.join();
    // The patched view must match what a from-scratch rebuild sees.
    Graph fresh(g.node_count());
    for (LinkId id = 0; id < g.link_count(); ++id)
      if (g.link_live(id)) fresh.add_link(g.link(id).a, g.link(id).b);
    for (NodeId s = 0; s < g.node_count(); ++s)
      ASSERT_EQ(bfs_distances(g, s), bfs_distances(fresh, s));
  }
}

}  // namespace
}  // namespace flattree::graph
