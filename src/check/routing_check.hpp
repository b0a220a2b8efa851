#pragma once
// Routing invariant validator: path-set structure.
//
// validate_paths() checks what Yen's algorithm promises: every path runs
// src..dst, is loopless, carries one link per hop with matching endpoints,
// and the set is distinct and sorted by length. Forwarding tables compiled
// from those paths are checked by check::validate_weighted_fib
// (check/te_check.hpp).

#include <vector>

#include "check/report.hpp"
#include "graph/ksp.hpp"

namespace flattree::check {

/// Validates a k-shortest-path set for (src, dst). Codes:
/// route.path_endpoints, route.path_links, route.path_loop,
/// route.path_length, route.path_order, route.path_duplicate.
Report validate_paths(const graph::Graph& g, graph::NodeId src, graph::NodeId dst,
                      const std::vector<graph::Path>& paths);

}  // namespace flattree::check
