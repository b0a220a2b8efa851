#include "check/distances.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/bfs.hpp"
#include "util/rng.hpp"

namespace flattree::check {
namespace {

using graph::Graph;
using graph::kUnreachable;
using graph::NodeId;

// A cold BFS row certifies; each broken condition (anchor, step, size) is
// reported, never thrown.
TEST(DistanceCertificate, AcceptsColdBfsAndRejectsTampering) {
  util::Rng rng(11);
  Graph g;
  g.add_nodes(16);
  for (std::size_t i = 0; i < 34; ++i) {
    NodeId a = static_cast<NodeId>(rng.below(16));
    NodeId b = static_cast<NodeId>(rng.below(16));
    if (a != b) g.add_link(a, b);
  }
  for (NodeId s = 0; s < 4; ++s) {
    auto dist = graph::bfs_distances(g, s);
    EXPECT_TRUE(certify_distances(g, s, dist).ok());

    auto broken = dist;
    broken[s] = 1;  // anchor violation
    EXPECT_FALSE(certify_distances(g, s, broken).ok());

    broken = dist;
    for (NodeId v = 0; v < 16; ++v) {
      if (v != s && broken[v] != kUnreachable && broken[v] > 0) {
        broken[v] += 5;  // step violation across some link
        break;
      }
    }
    EXPECT_FALSE(certify_distances(g, s, broken).ok());

    broken = dist;
    broken.pop_back();  // size violation
    EXPECT_FALSE(certify_distances(g, s, broken).ok());
  }
}

}  // namespace
}  // namespace flattree::check
