#pragma once
// Dinic max-flow and the exact max concurrent flow of instances with one
// source or one sink.
//
// Broadcast/incast commodities share one endpoint. When every commodity
// leaves one source s, max concurrent flow is a parametric max-flow: attach
// a super-sink T behind every target t with an arc of capacity lambda * d_t;
// lambda is feasible iff the s -> T max-flow saturates every such arc.
// exact_concurrent_flow() finds the optimum by Newton (Dinkelbach) steps on
// the cut ratio:
//
//   * start at lambda = cap(out of {s}) / D, the source's own cut;
//   * if the max-flow falls short of lambda * D, take the residual-reachable
//     set S and set lambda = cap(out of S) / d(targets outside S). That
//     value strictly decreases and stops at the optimum.
//
// On the paper's Figure 7 instances the first lambda is already feasible,
// so a solve is one max-flow. The answer is an ordinary McfResult with a
// feasible flow (lambda_lower) and the cut S that bounds it from above
// (lambda_upper = cap(out of S) / demand leaving S; check::certify
// recomputes it as mcf.cut_bound).
//
// Links are full-duplex and symmetric, so a one-sink instance is the same
// problem run from the sink: only the two arcs of each link swap, and the
// cut's side is complemented.
//
// The solve is exact: McfOptions::epsilon and max_augmentations do not
// apply to it, so a budgeted solve of a
// one-source instance is never truncated, and its phase, augmentation and
// Dijkstra counts are 0.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mcf/commodity.hpp"
#include "mcf/garg_koenemann.hpp"

namespace flattree::mcf {

/// Dinic's algorithm on an explicit directed network.
/// O(V^2 E) worst case; far faster on unit-ish capacities.
class MaxFlow {
 public:
  explicit MaxFlow(std::size_t nodes);

  /// Adds a directed arc u -> v; the residual reverse arc is implicit.
  /// Returns an arc id usable with arc_flow() and set_capacity().
  std::size_t add_arc(NodeId u, NodeId v, double capacity);

  /// Changes an arc's capacity for the next solve().
  void set_capacity(std::size_t arc, double capacity);

  /// Computes the max flow s -> t. Resets previous flow. s != t.
  double solve(NodeId s, NodeId t);

  /// Flow routed on a forward arc after solve().
  double arc_flow(std::size_t arc) const;

  /// After solve(s, t): 1 for every node reachable from s in the residual
  /// network (the source side of a minimum cut), else 0.
  std::vector<std::uint8_t> source_side() const;

 private:
  struct Arc {
    NodeId to;
    double capacity;  ///< residual capacity
    std::size_t rev;  ///< index of the reverse arc in adjacency_[to]
  };

  bool bfs_levels(NodeId s, NodeId t);
  double push(NodeId u, NodeId t, double limit);

  std::vector<std::vector<Arc>> adjacency_;
  std::vector<std::pair<NodeId, std::size_t>> arc_index_;  ///< (node, slot)
  std::vector<double> original_capacity_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
  NodeId last_source_ = 0;
};

/// Which endpoint every commodity of an exact instance shares.
enum class SharedEndpoint { Source, Sink };

/// Exact max concurrent flow of `commodities` over `g` when they all share
/// their source (SharedEndpoint::Source) or their sink (Sink); see the
/// header comment. max_concurrent_flow() dispatches here, after its input
/// checks and unreachable pre-pass. The result has lambda_lower = the
/// worst routed/demand ratio of a feasible flow, lambda_upper = the last
/// cut ratio, cut_source_side = that cut, truncated = false and zero
/// phase/augmentation/Dijkstra counts. Throws std::invalid_argument when a
/// commodity is disconnected or the endpoint is not shared.
McfResult exact_concurrent_flow(const graph::Graph& g,
                                const std::vector<Commodity>& commodities,
                                SharedEndpoint shared);

}  // namespace flattree::mcf
