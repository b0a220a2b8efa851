#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <type_traits>
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
  Graph g;
  g.add_nodes(3);
  LinkId l = g.add_link(0, 2, 2.5);
  EXPECT_EQ(g.link_count(), 1u);
  EXPECT_EQ(g.link(l).a, 0u);
  EXPECT_EQ(g.link(l).b, 2u);
  EXPECT_DOUBLE_EQ(g.link(l).capacity, 2.5);
  EXPECT_EQ(g.link(l).other(0), 2u);
  EXPECT_EQ(g.link(l).other(2), 0u);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g;
  g.add_nodes(2);
  EXPECT_THROW(g.add_link(1, 1), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  Graph g;
  g.add_nodes(2);
  EXPECT_THROW(g.add_link(0, 2), std::out_of_range);
}

TEST(Graph, RejectsNonPositiveCapacity) {
  Graph g;
  g.add_nodes(2);
  EXPECT_THROW(g.add_link(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_link(0, 1, -1.0), std::invalid_argument);
}

TEST(Graph, NeighborsAndDegree) {
  Graph g;
  g.add_nodes(4);
  g.add_link(0, 1);
  g.add_link(0, 2);
  g.add_link(0, 3);
  g.add_link(1, 2);
  EXPECT_EQ(g.neighbors(0).size(), 3u);
  EXPECT_EQ(g.neighbors(1).size(), 2u);
  EXPECT_EQ(g.neighbors(3).size(), 1u);
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
  Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 1.0);
  g.add_link(0, 1, 2.0);
  EXPECT_EQ(g.neighbors(0).size(), 2u);
  double capacity = 0.0;
  for (const Arc& arc : g.neighbors(0))
    if (arc.to == 1) capacity += g.link(arc.link).capacity;
  EXPECT_DOUBLE_EQ(capacity, 3.0);
}

TEST(Graph, CsrRebuildsAfterMutation) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  EXPECT_EQ(g.neighbors(0).size(), 1u);  // builds CSR
  g.add_link(0, 2);                      // invalidates CSR
  EXPECT_EQ(g.neighbors(0).size(), 2u);
  g.add_nodes(1);
  g.add_link(0, 3);
  EXPECT_EQ(g.neighbors(0).size(), 3u);
}

TEST(Graph, ArcLinkIdsMatch) {
  Graph g;
  g.add_nodes(3);
  LinkId l0 = g.add_link(0, 1);
  LinkId l1 = g.add_link(1, 2);
  for (const Arc& arc : g.neighbors(1)) {
    if (arc.to == 0) {
      EXPECT_EQ(arc.link, l0);
    }
    if (arc.to == 2) {
      EXPECT_EQ(arc.link, l1);
    }
  }
}

TEST(Graph, NeighborsOutOfRangeThrows) {
  Graph g;
  g.add_nodes(1);
  EXPECT_THROW(g.neighbors(1), std::out_of_range);
}

// -- CSR build ---------------------------------------------------------------

// (neighbor, link) list at `node`, in CSR order.
std::vector<std::pair<NodeId, LinkId>> arcs_of(const Graph& g, NodeId node) {
  std::vector<std::pair<NodeId, LinkId>> out;
  for (const Arc& arc : g.neighbors(node)) out.emplace_back(arc.to, arc.link);
  return out;
}

TEST(Graph, MoveKeepsAdjacency) {
  static_assert(!std::is_copy_constructible_v<Graph> && !std::is_copy_assignable_v<Graph>);
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  g.add_link(1, 2, 2.0);
  g.ensure_csr();
  const auto arcs1 = arcs_of(g, 1);
  Graph m = std::move(g);
  EXPECT_EQ(m.link_count(), 2u);
  EXPECT_EQ(arcs_of(m, 1), arcs1);
  m.add_link(0, 2);  // the moved-to graph owns its links and rebuilds its CSR
  EXPECT_EQ(m.neighbors(0).size(), 2u);
  EXPECT_DOUBLE_EQ(m.link(1).capacity, 2.0);
  Graph other;
  other.add_nodes(3);
  other.add_link(2, 0);
  other.ensure_csr();
  const auto arcs0 = arcs_of(other, 0);
  m.ensure_csr();
  m = std::move(other);  // assignment drops m's built CSR
  EXPECT_EQ(m.link_count(), 1u);
  EXPECT_EQ(arcs_of(m, 0), arcs0);
}

// Reads interleaved with appends: after every add_link the adjacency must
// equal a fresh build of the same links, arc order included (arcs follow
// link id order, which BFS tie-breaking and every digest depend on).
TEST(Graph, InterleavedAddsMatchFreshBuild) {
  const std::size_t n = 24;
  util::Rng rng(7);
  Graph g;
  g.add_nodes(n);
  for (int round = 0; round < 60; ++round) {
    NodeId a = static_cast<NodeId>(rng.below(n));
    NodeId b = static_cast<NodeId>(rng.below(n));
    if (a == b) continue;
    g.add_link(a, b, 1.0 + static_cast<double>(rng.below(4)));
    Graph fresh;
    fresh.add_nodes(n);
    for (const Link& l : g.links()) fresh.add_link(l.a, l.b, l.capacity);
    for (NodeId v = 0; v < n; ++v) {
      auto got = arcs_of(g, v);
      ASSERT_EQ(got, arcs_of(fresh, v)) << "node " << v << " round " << round;
      ASSERT_TRUE(std::is_sorted(got.begin(), got.end(), [](const auto& x, const auto& y) {
        return x.second < y.second;
      }));
    }
  }
}

// Concurrency regression (label `graph`, run by the tsan preset). The
// lazy-CSR double-checked lock must publish the rebuilt index to readers
// that race on the first neighbors() call after an add_link. The mutation
// itself happens-before the reader threads (thread creation), per the
// documented contract.
TEST(Graph, ConcurrentReadAfterAddIsRaceFree) {
  util::Rng rng(13);
  const std::size_t n = 24;
  Graph g;
  g.add_nodes(n);
  for (std::size_t i = 0; i < 40; ++i) {
    NodeId a = static_cast<NodeId>(rng.below(n));
    NodeId b = static_cast<NodeId>(rng.below(n));
    if (a != b) g.add_link(a, b);
  }
  g.ensure_csr();  // build once so each add invalidates a built index

  for (int round = 0; round < 8; ++round) {
    NodeId a = static_cast<NodeId>(rng.below(n));
    NodeId b = static_cast<NodeId>((a + 1 + rng.below(n - 1)) % n);
    g.add_link(a, b);
    // Readers race each other on the lazily rebuilt CSR (the add above is
    // sequenced before the threads start).
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
    // The rebuilt view must match what a from-scratch build sees.
    Graph fresh;
    fresh.add_nodes(n);
    for (const Link& l : g.links()) fresh.add_link(l.a, l.b);
    for (NodeId s = 0; s < n; ++s) ASSERT_EQ(bfs_distances(g, s), bfs_distances(fresh, s));
  }
}

}  // namespace
}  // namespace flattree::graph
