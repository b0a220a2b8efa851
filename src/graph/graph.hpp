#pragma once
// Undirected multigraph with per-link capacities and a CSR adjacency view.
//
// Topologies (src/topo, src/core) build Graph instances; algorithms (BFS,
// Dijkstra, k-shortest-paths) and the flow solvers consume them. Links are
// undirected at construction; solvers that need directed capacities treat
// each link as a pair of opposing arcs with the full link capacity each
// (full-duplex), which is the standard model in DCN throughput studies.
//
// Tombstones: links can be removed and restored *in place* — link ids are
// never renumbered, removed links stay as tombstoned slots in `links()`.
// The CSR adjacency is maintained incrementally: small remove/restore
// deltas patch the existing index in O(delta * degree) instead of the
// O(V + E) full rebuild. Graphs built by the topology layer never remove
// links; the one tombstone user is fault::FaultedGraph, whose consumers
// all go through neighbors() (which skips dead links). Code that iterates
// `links()` directly must either know the graph has no tombstones (every
// materialized Topology) or check `link_live()` per slot.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

namespace flattree::graph {

/// Node identifier: dense 0-based index into a Graph's node range.
using NodeId = std::uint32_t;
/// Link identifier: dense 0-based index into a Graph's link slots. Stable
/// across remove_link/restore_link (slots are tombstoned, never reused).
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

/// Undirected multigraph with lazily built, incrementally patched CSR
/// adjacency.
///
/// Thread-safety: the lazy CSR build/patch is internally synchronized
/// (double-checked lock), so any number of read-only algorithms (BFS,
/// Dijkstra, Yen) may run concurrently on a shared Graph. Mutation
/// (add_nodes/add_link/remove_link/restore_link) is NOT safe
/// against concurrent readers: callers must establish a happens-before
/// edge between the last mutation and the first concurrent read (e.g.
/// mutate, then launch the readers). Every mutator invalidates the CSR
/// guard with a release store, so readers that are properly sequenced
/// after it observe the patched index, never a stale one.
class Graph {
 public:
  Graph() = default;
  /// Constructs a graph with `node_count` nodes and no links.
  explicit Graph(std::size_t node_count);

  // Copies/moves transfer the structure but not the CSR cache (it is
  // rebuilt lazily); required because the cache guard members are neither
  // copyable nor movable.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Appends `count` fresh nodes, returning the id of the first. O(1);
  /// invalidates the CSR (next access rebuilds in full).
  NodeId add_nodes(std::size_t count);

  /// Adds an undirected link; throws on self-loop, unknown endpoint, or
  /// non-positive capacity. O(1) amortized; invalidates the CSR (next
  /// access rebuilds in full — appends cannot be patched in place).
  LinkId add_link(NodeId a, NodeId b, double capacity = 1.0);

  /// Tombstones a live link: it vanishes from neighbors()/degree() but its
  /// slot (and id) survive, so restore_link can revive it and ids held by
  /// callers stay valid. Throws std::out_of_range on a bad id and
  /// std::logic_error if the link is already removed. O(1) plus a deferred
  /// CSR patch of O(degree) at the next adjacency access.
  void remove_link(LinkId id);

  /// Revives a link previously tombstoned by remove_link (same endpoints
  /// and capacity). Throws std::out_of_range on a bad id and
  /// std::logic_error if the link is live. Cost mirrors remove_link.
  void restore_link(LinkId id);

  /// Number of nodes.
  std::size_t node_count() const { return node_count_; }
  /// Number of link *slots*, including tombstoned ones (stable id space).
  std::size_t link_count() const { return links_.size(); }
  /// Number of live (non-tombstoned) links.
  std::size_t live_link_count() const { return live_link_count_; }
  /// True when the slot holds a live link (false after remove_link).
  bool link_live(LinkId id) const { return live_.empty() || live_[id] != 0; }
  /// The link stored in slot `id` (valid for tombstoned slots too).
  const Link& link(LinkId id) const { return links_[id]; }
  /// All link slots in id order, tombstones included — check link_live()
  /// when the graph may have been edited (see the header comment).
  const std::vector<Link>& links() const { return links_; }

  /// Number of live link endpoints at `node` (counts parallel links).
  std::size_t degree(NodeId node) const;

  /// Arcs leaving `node` over live links only. Builds (or patches) the CSR
  /// index lazily on first use after a mutation. The lazy build is
  /// thread-safe, so read-only algorithms (BFS, Dijkstra, Yen) may run
  /// concurrently on a shared Graph; mutation is NOT safe against
  /// concurrent readers (see the class comment).
  std::span<const Arc> neighbors(NodeId node) const;

  /// Forces the CSR build/patch now (also done implicitly by neighbors()).
  void ensure_csr() const;

  /// True if a live link (possibly one of several) joins a and b.
  bool connected(NodeId a, NodeId b) const;

  /// Total capacity between a and b over all live parallel links.
  double capacity_between(NodeId a, NodeId b) const;

 private:
  void build_csr() const;
  bool patch_csr() const;
  void note_structural_edit();
  void note_liveness_edit(LinkId id, bool now_live);

  std::size_t node_count_ = 0;
  std::vector<Link> links_;
  // Liveness per link slot; empty means "all live" (the common, never-
  // edited case pays no memory or branch cost beyond an empty() check).
  std::vector<char> live_;
  std::size_t live_link_count_ = 0;

  // Lazily built CSR adjacency. csr_valid_ is the double-checked guard:
  // readers acquire-load it; the builder publishes the vectors with a
  // release-store under csr_mutex_. Within each node's segment the live
  // arcs come first ([offset[v], offset[v] + live_deg[v])), tombstoned
  // arcs are parked behind them so remove/restore patch by swapping
  // inside the segment without moving other nodes' ranges.
  //
  // csr_pending_ holds liveness flips recorded after the last build; the
  // next ensure_csr() applies them as in-place patches when the delta is
  // small, or falls back to a full rebuild. csr_structurally_stale_ forces
  // the full rebuild (add_nodes/add_link change segment shapes).
  mutable std::mutex csr_mutex_;
  mutable std::atomic<bool> csr_valid_{false};
  mutable bool csr_built_ = false;
  mutable bool csr_structurally_stale_ = true;
  mutable std::vector<std::pair<LinkId, bool>> csr_pending_;  ///< (link, now_live)
  mutable std::vector<std::uint32_t> csr_offset_;
  mutable std::vector<std::uint32_t> csr_live_deg_;
  mutable std::vector<Arc> csr_arcs_;
};

}  // namespace flattree::graph
