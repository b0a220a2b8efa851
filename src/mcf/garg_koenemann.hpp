#pragma once
// Maximum concurrent multicommodity flow via the Garg-Koenemann framework
// with Fleischer's phase/path-reuse improvements.
//
// Links are full-duplex: each undirected link becomes two opposing arcs of
// the full link capacity (the standard model in DCN throughput studies).
// The solver returns
//   * lambda_lower — a certified feasible value: the routed flow rescaled
//     by the worst observed congestion (always a valid lower bound on the
//     optimum, independent of epsilon), and
//   * lambda_upper — an LP-duality bound D(l)/alpha(l) under the final
//     length function (always a valid upper bound),
// so every answer carries its own optimality certificate. For the FPTAS
// guarantee lambda_lower >= (1-3eps) * optimum, but in practice the
// reported gap is much tighter.
//
// Path reuse: within a phase the solver routes a whole source group along
// one Dijkstra tree and re-walks path lengths incrementally, recomputing
// the tree only when a path's current length exceeds (1+eps) times its
// length at tree-computation time (Fleischer's rule).
//
// Every solve starts from the same point, the length function delta/cap
// with zero flow, so a result is a pure function of (graph, commodities,
// options).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mcf/commodity.hpp"

namespace flattree::mcf {

/// Solver knobs for max_concurrent_flow.
struct McfOptions {
  double epsilon = 0.2;            ///< FPTAS accuracy knob, in (0, 1)
  bool compute_upper_bound = true; ///< duality bound sweep at termination
  /// Phase cap. When hit before the termination test D(l) >= 1 the run is
  /// *truncated* (see McfResult::truncated): both bounds stay valid —
  /// lambda_lower is the actually-routed flow rescaled by the observed
  /// congestion (primal-feasible by construction), lambda_upper is still
  /// an LP-duality bound — but the FPTAS gap guarantee between them no
  /// longer applies, so the bracket may be arbitrarily loose.
  std::uint64_t max_phases = 1u << 20;
  /// Deadline-style budget alongside max_phases, denominated in
  /// augmentations rather than wall time so truncation points are
  /// bitwise-reproducible at any thread count (the augmentation loop is
  /// sequential and deterministic; a wall-clock deadline would not be).
  /// 0 = unlimited. Hitting the budget mid-phase stops the solve with
  /// McfResult::truncated = true and the same validity caveats as a
  /// max_phases cut.
  std::uint64_t max_augmentations = 0;
  /// Accept commodities whose endpoints are disconnected in `g` instead of
  /// throwing: they are excluded from the solve, listed in
  /// McfResult::unreachable, routed zero flow, and reported through the
  /// demand-weighted McfResult::served_fraction. The returned bracket then
  /// certifies the *reachable sub-instance* (check::certify_served).
  bool allow_unreachable = false;
};

/// Solver output: a certified bracket [lambda_lower, lambda_upper] around
/// the optimum plus the flow that witnesses the lower bound.
struct McfResult {
  double lambda_lower = 0.0;  ///< certified feasible concurrent-flow value
  double lambda_upper = 0.0;  ///< duality upper bound (inf if not computed)
  double max_congestion = 0.0;
  std::uint64_t phases = 0;
  std::uint64_t augmentations = 0;
  std::uint64_t dijkstra_runs = 0;
  /// True when max_phases stopped the run before D(l) reached 1. The
  /// bounds above remain individually valid (feasible lower, duality
  /// upper) but carry no (1 - 3*eps) gap promise; callers relying on the
  /// FPTAS guarantee must check this flag (check::certify does).
  bool truncated = false;
  /// Per-arc routed flow after rescaling (arc 2*l = link l a->b, 2*l+1 =
  /// b->a); max_a flow/cap == 1 after rescaling unless no flow was routed.
  std::vector<double> arc_flow;
  /// Flow shipped per input commodity (aligned with the `commodities`
  /// argument), after the same congestion rescaling as arc_flow — so
  /// commodity_routed[i] >= lambda_lower * demand[i] and the divergence of
  /// arc_flow at every node equals the net routed supply. check::certify
  /// verifies both.
  std::vector<double> commodity_routed;
  /// Demand-weighted fraction of the input that was solvable at all:
  /// sum(demand over reachable commodities) / sum(demand). 1.0 unless
  /// McfOptions::allow_unreachable excluded commodities; 0.0 when every
  /// commodity was disconnected (then the rest of the result is the
  /// degenerate zero solve: lambda bounds 0, no phases, zero flow).
  double served_fraction = 1.0;
  /// Indices (into the input `commodities`) excluded as unreachable,
  /// ascending. Empty unless allow_unreachable is set. Their
  /// commodity_routed entries are exactly 0.
  std::vector<std::uint32_t> unreachable;
};

/// Solves max concurrent flow for `commodities` over `g` on the caller's
/// thread (callers fan out independent solves instead). Throws
/// std::invalid_argument on empty commodities, an epsilon outside the
/// open interval (0, 1) (NaN included), unreachable pairs (unless
/// McfOptions::allow_unreachable), or any link with a non-positive/
/// non-finite capacity (zero-capacity links would otherwise poison every
/// length with inf).
McfResult max_concurrent_flow(const graph::Graph& g,
                              const std::vector<Commodity>& commodities,
                              const McfOptions& options = {});

}  // namespace flattree::mcf
