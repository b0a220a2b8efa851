#pragma once
// Path database and the routing-scheme interface (paper Section 2.6).
//
// Flat-tree routes Clos mode with ECMP and random-graph modes with
// k-shortest-paths (as Jellyfish does). Because flat-tree's topologies are
// known in advance, paths are precomputed — here lazily, per switch pair —
// and selections are made with a deterministic flow hash (an SDN controller
// would instead install the precomputed paths).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/ksp.hpp"

namespace flattree::routing {

using graph::NodeId;
using graph::Path;

/// Cache of path sets keyed by (src, dst) switch pair.
class PathDb {
 public:
  const std::vector<Path>* find(NodeId src, NodeId dst) const;
  void set(NodeId src, NodeId dst, std::vector<Path> paths);

 private:
  static std::uint64_t key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  std::unordered_map<std::uint64_t, std::vector<Path>> map_;
};

/// A routing scheme: deterministic per-flow path selection between
/// switches. Implementations cache computed path sets.
class Routing {
 public:
  virtual ~Routing() = default;
  /// The path a given flow takes; never null for connected pairs
  /// (throws std::runtime_error when src and dst are disconnected).
  /// `flow_id` feeds the hash that spreads flows over the path set.
  virtual const Path& select(NodeId src, NodeId dst, std::uint64_t flow_id) = 0;
  /// Full candidate set for a pair (for tests and inspection).
  virtual const std::vector<Path>& paths(NodeId src, NodeId dst) = 0;
};

}  // namespace flattree::routing
