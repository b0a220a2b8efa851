#pragma once
// Path database and the routing-scheme interface (paper Section 2.6).
//
// Flat-tree routes Clos mode with ECMP and random-graph modes with
// k-shortest-paths (as Jellyfish does). Because flat-tree's topologies are
// known in advance, paths are precomputed -- here lazily, per switch pair.
// A path set is either compiled into a forwarding table
// (te::compile_fib, te::compile_wcmp_paths) or handed to the packet
// simulator as source routes (sim::PacketFlow::paths).

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

/// A routing scheme: the candidate path set of each switch pair.
/// Implementations cache computed path sets, so a returned reference stays
/// valid for the scheme's lifetime.
class Routing {
 public:
  virtual ~Routing() = default;
  /// The path set of a pair (throws std::runtime_error when src and dst
  /// are disconnected).
  virtual const std::vector<Path>& paths(NodeId src, NodeId dst) = 0;
};

}  // namespace flattree::routing
