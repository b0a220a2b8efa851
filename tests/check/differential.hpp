#pragma once
// Differential harness: mcf::max_concurrent_flow vs the exact LP on small
// random instances.
//
// Certificates (check/certify.hpp) prove a result is internally
// consistent; only an independent solver proves it is *right*. This
// harness draws a small random connected multigraph (heterogeneous
// capacities, optional parallel links) and a random commodity set, solves
// it with both mcf::max_concurrent_flow and mcf::max_concurrent_flow_exact,
// and reports every disagreement. A draw whose commodities share one source
// or one sink takes max_concurrent_flow's exact max-flow path instead of
// Garg-Koenemann (GK); it is kept, and checked against the LP the same way:
//
//   * the exact optimum must land inside [lambda_lower, lambda_upper];
//   * lambda_lower must be within the requested gap factor of the exact
//     optimum (default 1 + epsilon — the empirical FPTAS agreement the
//     experiments rely on, tighter than the (1 - 3*eps) worst case);
//   * the result must pass its own certificate.
//
// tests/check/differential_test.cpp sweeps seeds; benches do not run this
// (the exact LP is exponential in practice beyond toy sizes).

#include <cstdint>

#include "check/certify.hpp"
#include "check/report.hpp"
#include "graph/graph.hpp"
#include "mcf/commodity.hpp"
#include "mcf/garg_koenemann.hpp"

namespace flattree::check {

/// A seeded random multigraph instance for one GK-vs-exact-LP comparison.
struct DifferentialSpec {
  std::uint64_t seed = 1;
  std::size_t nodes = 6;
  std::size_t extra_links = 4;   ///< links beyond the random spanning tree
  std::size_t commodities = 3;
  double epsilon = 0.05;         ///< GK accuracy knob
  double cap_lo = 0.5;           ///< capacity range (uniform)
  double cap_hi = 2.0;
  bool parallel_links = true;    ///< allow duplicate (a, b) links
  /// Required lambda_lower >= exact / gap_factor; 0 means 1 + epsilon.
  double gap_factor = 0.0;
};

/// The generated instance, both solutions, and the comparison verdict.
struct DifferentialOutcome {
  graph::Graph graph;
  std::vector<mcf::Commodity> commodities;
  double exact = 0.0;
  mcf::McfResult result;  ///< max_concurrent_flow's answer
  Report report;  ///< empty iff `result` and the exact LP agree
  /// True when GK solved the instance: only the exact max-flow path
  /// reports a cut.
  bool ran_gk() const { return result.cut_source_side.empty(); }
};

/// Runs one differential case. Codes (beyond certify()'s):
/// diff.exact_unsolved, diff.lower_exceeds_exact, diff.upper_below_exact,
/// diff.gap.
DifferentialOutcome run_differential(const DifferentialSpec& spec);

}  // namespace flattree::check
