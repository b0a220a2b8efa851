#pragma once
// Undirected multigraph with per-link capacities and a CSR adjacency view.
//
// Topologies (src/topo, src/core) build Graph instances; algorithms (BFS,
// Dijkstra, k-shortest-paths) and the flow solvers consume them. Links are
// undirected at construction; solvers that need directed capacities treat
// each link as a pair of opposing arcs with the full link capacity each
// (full-duplex), which is the standard model in DCN throughput studies.
//
// A Graph is append-only: nodes and links are added, never removed, and
// link ids are dense in insertion order. A degraded network is a fresh
// graph (fault::degrade rebuilds one from the fault state). The CSR
// adjacency is built lazily, in full, on the first read after an append.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

namespace flattree::graph {

/// Node identifier: dense 0-based index into a Graph's node range.
using NodeId = std::uint32_t;
/// Link identifier: dense 0-based index into a Graph's links, in the order
/// they were added.
using LinkId = std::uint32_t;

/// Sentinel NodeId ("no node"), used by BFS trees and path extraction.
inline constexpr NodeId kInvalidNode = ~NodeId{0};
/// Sentinel LinkId ("no link"), used for tree roots and missing parents.
inline constexpr LinkId kInvalidLink = ~LinkId{0};

/// One undirected link. Parallel links between the same node pair are
/// allowed (each keeps its own capacity); self-loops are rejected.
struct Link {
  NodeId a = kInvalidNode;       ///< first endpoint
  NodeId b = kInvalidNode;       ///< second endpoint
  double capacity = 1.0;         ///< positive, finite link capacity

  /// The endpoint opposite to `from` (precondition: from is an endpoint).
  NodeId other(NodeId from) const { return from == a ? b : a; }
};

/// Half-edge in the adjacency view: the neighbor plus the link it rides on.
struct Arc {
  NodeId to = kInvalidNode;      ///< neighbor node
  LinkId link = kInvalidLink;    ///< link carrying this half-edge
};

/// Undirected, append-only multigraph with lazily built CSR adjacency.
///
/// Thread-safety: the lazy CSR build is internally synchronized
/// (double-checked lock), so any number of read-only algorithms (BFS,
/// Dijkstra, Yen) may run concurrently on a shared Graph. Mutation
/// (add_nodes/add_link) is NOT safe against concurrent readers: callers
/// must establish a happens-before edge between the last mutation and the
/// first concurrent read (e.g. mutate, then launch the readers). Every
/// mutator invalidates the CSR guard with a release store, so readers that
/// are properly sequenced after it observe the rebuilt index, never a
/// stale one.
class Graph {
 public:
  Graph() = default;

  // Moves transfer the structure but not the CSR cache (it is rebuilt
  // lazily); required because the cache guard members are not movable.
  // Nothing copies a graph.
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Appends `count` fresh nodes, returning the id of the first. O(1);
  /// invalidates the CSR (next access rebuilds in full).
  NodeId add_nodes(std::size_t count);

  /// Adds an undirected link; throws on self-loop, unknown endpoint, or
  /// non-positive capacity. O(1) amortized; invalidates the CSR (next
  /// access rebuilds it in full).
  LinkId add_link(NodeId a, NodeId b, double capacity = 1.0);

  /// Number of nodes.
  std::size_t node_count() const { return node_count_; }
  /// Number of links.
  std::size_t link_count() const { return links_.size(); }
  /// The link with id `id`.
  const Link& link(LinkId id) const { return links_[id]; }
  /// All links in id order.
  const std::vector<Link>& links() const { return links_; }

  /// Arcs leaving `node`, in link id order. Builds the CSR index lazily on
  /// first use after a mutation. The lazy build is thread-safe, so
  /// read-only algorithms (BFS, Dijkstra, Yen) may run concurrently on a
  /// shared Graph; mutation is NOT safe against concurrent readers (see
  /// the class comment).
  std::span<const Arc> neighbors(NodeId node) const;

  /// Forces the CSR build now (also done implicitly by neighbors()).
  void ensure_csr() const;

 private:
  void build_csr() const;
  void invalidate_csr();

  std::size_t node_count_ = 0;
  std::vector<Link> links_;

  // Lazily built CSR adjacency: node v's arcs are
  // csr_arcs_[csr_offset_[v], csr_offset_[v + 1]). csr_valid_ is the
  // double-checked guard: readers acquire-load it; the builder publishes
  // the vectors with a release-store under csr_mutex_.
  mutable std::mutex csr_mutex_;
  mutable std::atomic<bool> csr_valid_{false};
  mutable std::vector<std::uint32_t> csr_offset_;
  mutable std::vector<Arc> csr_arcs_;
};

}  // namespace flattree::graph
