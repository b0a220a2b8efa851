#pragma once
// Exact maximum concurrent flow via the arc-based LP (paper Section 3.1
// methodology, solved with the simplex in tests/lp).
//
// Intended for small instances only (the variable count is
// commodities x arcs): it anchors unit tests with exact optima and
// cross-validates the Garg-Koenemann FPTAS. Full-scale experiments use
// mcf/garg_koenemann.hpp.

#include <vector>

#include "graph/graph.hpp"
#include "mcf/commodity.hpp"

namespace flattree::mcf {

/// Outcome of the exact LP solve (cross-validates the FPTAS solver).
struct ExactResult {
  bool solved = false;   ///< false on infeasible/iteration limit
  double lambda = 0.0;   ///< exact optimum when solved
};

/// Solves max lambda s.t. each commodity ships lambda * demand, links
/// full-duplex with per-direction capacity. Throws std::invalid_argument
/// on an instance too large (`max_variables` guard) or malformed.
ExactResult max_concurrent_flow_exact(const graph::Graph& g,
                                      const std::vector<Commodity>& commodities,
                                      std::size_t max_variables = 20'000);

}  // namespace flattree::mcf
