#pragma once
// Solver certificates for max-concurrent-flow results.
//
// A Garg-Koenemann answer is only trustworthy if its self-certificate
// actually holds; FPTAS implementations are notorious for quietly
// returning primal/dual "bounds" that fail to bracket the optimum after a
// rescaling or termination bug. certify() re-derives every claim from the
// McfResult's own evidence (rescaled arc flows, per-commodity routed
// totals, the cut or dual lengths behind the upper bound), independently of the solver's internal state:
//
//   1. capacity feasibility: arc_flow[a] <= cap[a] on every arc;
//   2. flow conservation: per-node divergence of arc_flow equals the net
//      routed supply/demand implied by commodity_routed;
//   3. primal support: commodity_routed[i] >= lambda_lower * demand[i]
//      (so lambda_lower is genuinely achieved by the shipped flow);
//   4. bracket sanity: lambda_lower <= lambda_upper;
//   5. FPTAS gap: on converged runs (result.truncated == false),
//      lambda_lower >= (1 - 3*epsilon) * lambda_upper — the guarantee
//      documented in mcf/garg_koenemann.hpp. Truncated runs keep valid
//      bounds but carry no gap promise, so the gap check is skipped;
//   6. cut bound: when the result carries a cut (the exact one-source /
//      one-sink path; GK results carry none and skip this), its set S must
//      hold a commodity source whose demand leaves S, and lambda_upper >=
//      cap(out of S) / demand(S -> rest), recomputed from the graph;
//   7. dual bound: a GK result carries the lengths l behind its upper
//      bound (McfResult::dual_length); they must be finite and
//      non-negative, and lambda_upper >= D(l) / alpha(l), with
//      D = sum cap * l and alpha = sum demand * dist_l recomputed by a
//      directed Dijkstra per distinct source. A GK result with a finite
//      lambda_upper and no lengths fails.
//
// All comparisons are tolerance-aware (floating-point accumulation over
// ~1/eps^2 augmentations): x <= y is checked as x <= y * (1 + 1e-7) + 1e-9.

#include <vector>

#include "check/report.hpp"
#include "graph/graph.hpp"
#include "mcf/commodity.hpp"
#include "mcf/garg_koenemann.hpp"

namespace flattree::check {

/// The epsilon the certified solve ran with.
struct CertifyOptions {
  /// The epsilon the solve ran with; enables the FPTAS gap check (5) when
  /// in (0, 1/3). 0 skips the gap check.
  double epsilon = 0.0;
};

/// Certifies `result` as a solution of max_concurrent_flow(g, commodities).
/// Codes: mcf.arc_flow_size, mcf.routed_size, mcf.capacity,
/// mcf.conservation, mcf.primal_support, mcf.bracket, mcf.fptas_gap,
/// mcf.cut_bound, mcf.dual_bound.
Report certify(const graph::Graph& g, const std::vector<mcf::Commodity>& commodities,
               const mcf::McfResult& result, const CertifyOptions& options = {});

/// Certifies a McfOptions::allow_unreachable solve. First checks the
/// degraded-service claims themselves — result.unreachable indices are
/// sorted/in-range (mcf.unreachable_index), excluded commodities routed
/// exactly zero flow (mcf.unreachable_routed), and served_fraction equals
/// the demand-weighted reachable share (mcf.served_fraction) — then runs
/// the full certify() battery on the *reachable sub-instance* (excluded
/// commodities and their routed entries filtered out), so the bracket and
/// FPTAS gap are certified for exactly what the solver claims it solved.
/// A fully-disconnected instance (served_fraction == 0) certifies iff the
/// result is the degenerate zero solve. Equivalent to certify() when
/// result.unreachable is empty.
Report certify_served(const graph::Graph& g,
                      const std::vector<mcf::Commodity>& commodities,
                      const mcf::McfResult& result, const CertifyOptions& options = {});

}  // namespace flattree::check
