#pragma once
// Maximum concurrent multicommodity flow. max_concurrent_flow() is the one
// entry point and picks the solver:
//
//   * every commodity shares one source, or every commodity shares one
//     sink: the exact parametric max-flow of mcf/max_flow.hpp, whose
//     answer is certified from above by a cut (McfResult::cut_source_side);
//   * anything else: the Garg-Koenemann framework with Fleischer's
//     phase/path-reuse improvements, described below.
//
// Links are full-duplex: each undirected link becomes two opposing arcs of
// the full link capacity (the standard model in DCN throughput studies).
// The solver returns
//   * lambda_lower — a certified feasible value: a routed flow rescaled by
//     its worst congestion (always a valid lower bound on the optimum,
//     independent of epsilon), and
//   * lambda_upper — an LP-duality bound D(l)/alpha(l) under some length
//     function l the run visited (always a valid upper bound), whose
//     lengths come back in McfResult::dual_length,
// so every answer carries its own optimality certificate.
//
// Stop rule: every phase starts by growing one Dijkstra tree per source
// group, and those trees price alpha(l) for free, so each phase start
// offers a primal candidate (the flow so far, rescaled) and a dual one
// (D(l)/alpha(l)). The solver keeps the best of each and stops as soon as
// lambda_lower * (1 + eps) >= lambda_upper: a gap stop, which is
// convergence, not truncation. Otherwise it runs to D(l) >= 1, where the
// final flow and a final dual sweep compete with the phase starts; the
// FPTAS guarantee lambda_lower >= (1-3eps) * optimum holds either way.
// The stop rule reads the phase-start bracket whether or not
// McfOptions::compute_upper_bound is set, so lambda_lower, the flow and
// every count except the final sweep's Dijkstra runs do not depend on it.
//
// Path reuse: within a phase the solver routes a whole source group along
// one Dijkstra tree and re-walks path lengths incrementally, recomputing
// the tree only when a path's current length exceeds (1+eps) times its
// length at tree-computation time (Fleischer's rule). Each Dijkstra run
// stops once the targets it serves are settled: all of the group's for a
// phase-start tree or the dual sweep, the ones still to route for a
// recomputed tree.
//
// Every solve starts from the same point, the length function delta/cap
// with zero flow, so a result is a pure function of (graph, commodities,
// options).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mcf/commodity.hpp"

namespace flattree::mcf {

/// Solver knobs for max_concurrent_flow. epsilon, compute_upper_bound and
/// max_augmentations steer Garg-Koenemann only: a one-source
/// or one-sink instance is solved exactly, always reports its cut bound, and
/// is never truncated (epsilon is still range-checked for every instance).
struct McfOptions {
  /// FPTAS accuracy knob, in (0, 1); also the gap-stop tolerance.
  double epsilon = 0.2;
  /// Report lambda_upper and dual_length, running the final dual sweep
  /// when the run ends without a gap stop.
  bool compute_upper_bound = true;
  /// Deadline-style budget, denominated in augmentations rather than wall
  /// time so truncation points are bitwise-reproducible at any thread
  /// count (the augmentation loop is sequential and deterministic; a
  /// wall-clock deadline would not be). 0 = unlimited. When hit before the
  /// run converges (gap stop or D(l) >= 1) the run is *truncated* (see
  /// McfResult::truncated): both bounds stay valid -- lambda_lower is an
  /// actually-routed flow rescaled by its congestion (primal-feasible by
  /// construction), lambda_upper is still an LP-duality bound -- but the
  /// FPTAS gap guarantee between them no longer applies, so the bracket
  /// may be arbitrarily loose.
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
  /// Upper bound: GK's best duality bound (inf if not computed), or the
  /// exact path's cut ratio.
  double lambda_upper = 0.0;
  /// GK: the worst arc congestion of the lambda_lower flow before
  /// rescaling. Exact path: the worst arc utilisation of arc_flow.
  double max_congestion = 0.0;
  /// GK: phases that routed flow (a gap stop ends the run at a phase
  /// start, which is not counted).
  std::uint64_t phases = 0;
  std::uint64_t augmentations = 0;
  std::uint64_t dijkstra_runs = 0;
  /// True when max_augmentations stopped the run before it converged (by
  /// a gap stop or D(l) reaching 1). The bounds above remain individually
  /// valid (feasible lower, duality upper) but carry no (1 - 3*eps) gap
  /// promise; callers relying on the FPTAS guarantee must check this flag
  /// (check::certify does).
  bool truncated = false;
  /// Per-arc routed flow after rescaling (arc 2*l = link l a->b, 2*l+1 =
  /// b->a); max_a flow/cap == 1 after rescaling unless no flow was routed.
  /// GK: the flow of the point (a phase start or the end) that gave
  /// lambda_lower.
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
  /// Exact path only (empty for GK): one entry per node, 1 on the source
  /// side S of the cut behind lambda_upper, so lambda_upper >=
  /// cap(out of S) / (demand from S to the rest), which check::certify
  /// recomputes (mcf.cut_bound).
  std::vector<std::uint8_t> cut_source_side;
  /// GK only (empty for the exact path, and when compute_upper_bound is
  /// off): the per-arc lengths l behind lambda_upper, arc 2*l = link l
  /// a->b, so lambda_upper >= sum(cap * l) / sum(demand * dist_l), which
  /// check::certify recomputes (mcf.dual_bound).
  std::vector<double> dual_length;
};

/// Solves max concurrent flow for `commodities` over `g` on the caller's
/// thread (callers fan out independent solves instead): exactly when every
/// commodity shares one source or one sink, by Garg-Koenemann otherwise
/// (see the header comment). Throws
/// std::invalid_argument on empty commodities, an epsilon outside the
/// open interval (0, 1) (NaN included), unreachable pairs (unless
/// McfOptions::allow_unreachable), or any link with a non-positive/
/// non-finite capacity (zero-capacity links would otherwise poison every
/// length with inf).
McfResult max_concurrent_flow(const graph::Graph& g,
                              const std::vector<Commodity>& commodities,
                              const McfOptions& options = {});

}  // namespace flattree::mcf
