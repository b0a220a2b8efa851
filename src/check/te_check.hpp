#pragma once
// Forwarding-table model checking: the one checker for every te::WeightedFib,
// weighted (WCMP) or equal-cost (ECMP).
//
// It answers "is this table safe to install" before rules reach a switch,
// and accumulates every finding under a stable dotted code, so --selfcheck
// benches and negative-control tests can filter programmatically. Codes:
//
//   te.wfib.bad_link      rule's link id is out of range or not incident
//                         to the switch it is installed at
//   te.wfib.zero_weight   stored rule with weight 0 (compilers prune)
//   te.wfib.weight_sum    weighted table: a non-empty entry's weights do
//                         not sum to the table's weight budget
//                         (quantization must conserve it exactly);
//                         equal-cost table: a rule's weight is not 1
//   te.wfib.disconnected  a checked pair is disconnected in the topology
//   te.wfib.blackhole     a walk reaches a switch (not dst) with no
//                         positive-weight rule toward dst
//   te.wfib.progress      a rule on some walk does not strictly decrease
//                         the hop distance to dst (min-hop tables always
//                         make progress; hop-by-hop KSP tables may not)
//   te.wfib.loop          positive-weight rules form a forwarding cycle
//                         toward dst
//   te.wfib.hop_limit     some greedy walk exceeds kFibHopLimit hops

#include <utility>
#include <vector>

#include "check/report.hpp"
#include "te/weighted_fib.hpp"
#include "topo/topology.hpp"

namespace flattree::check {

/// Longest admissible greedy walk, in switch hops.
inline constexpr std::uint32_t kFibHopLimit = 32;

/// Model-checks `fib` for every ordered pair in `pairs`: structural rule
/// hygiene (bad_link / zero_weight / weight_sum) over the whole table,
/// then reachability, strict hop-distance progress, loop-freedom, and the
/// hop bound over every positive-weight walk of the checked pairs. See
/// the header comment for the violation codes.
Report validate_weighted_fib(const topo::Topology& t, const te::WeightedFib& fib,
                             const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs);

}  // namespace flattree::check
