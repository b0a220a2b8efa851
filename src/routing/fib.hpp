#pragma once
// The switch pairs a forwarding table must cover.
//
// Forwarding tables themselves live in src/te: te::WeightedFib is the one
// table type, te::compile_fib installs ECMP path sets into it at weight 1
// and te::compile_wcmp_* install weighted ones; check::validate_weighted_fib
// model-checks either kind. This header keeps the pair set every compiler
// and checker is driven with.

#include <utility>
#include <vector>

#include "routing/paths.hpp"
#include "topo/topology.hpp"

namespace flattree::routing {

/// All ordered pairs of switches that host at least one server.
std::vector<std::pair<NodeId, NodeId>> all_server_pairs(const topo::Topology& topo);

}  // namespace flattree::routing
