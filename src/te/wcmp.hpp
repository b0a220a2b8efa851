#pragma once
// Forwarding-table compilers: install a routing scheme's path sets into a
// te::WeightedFib.
//
// Two sources of rules:
//
//   * Equal cost (compile_fib): every next hop of every candidate path is
//     installed once at weight 1, hop by hop — the ECMP table. Hop-by-hop
//     installation of *non-shortest* path sets (KSP) can mix hops of
//     different paths into loops; check::validate_weighted_fib detects
//     them, and production KSP routing pins paths end to end instead
//     (tunnels), which per-flow select() emulates.
//   * Path multiplicities (compile_wcmp_paths): every candidate path of a
//     routing scheme (ECMP's equal-cost set, or Yen's k shortest paths)
//     contributes one count to each (switch, dst, link) hop it crosses;
//     the per-entry counts are the share vector. With ECMP this weights a
//     next hop by the number of shortest paths through it — the classic
//     WCMP derivation; with KSP the same hop-by-hop caveat applies.
//
// Quantization (quantize_weights) uses largest-remainder rounding: floor
// shares scaled to the budget, then hand out the remaining units by
// descending fractional remainder with index order as the deterministic
// tie-break. The result always sums to the budget and never rounds a
// positive share set to all zeros. Zero-weight rules are pruned before
// installation.

#include <cstdint>
#include <utility>
#include <vector>

#include "routing/paths.hpp"
#include "te/weighted_fib.hpp"
#include "topo/topology.hpp"

namespace flattree::te {

/// Largest-remainder quantization of non-negative `shares` to integers
/// summing to `budget`. Throws std::invalid_argument when every share is
/// zero (or negative) or the budget is zero, and std::logic_error if the
/// conservation fix-up loops cannot make the sum exact (no positive share
/// left to absorb residue — unreachable for valid inputs, but guarded so
/// FP pathologies fail loudly instead of corrupting FIB weights).
/// Non-finite shares are tolerated: a share at +inf (or a share sum that
/// overflows to +inf) contributes no floor weight and the budget is
/// redistributed over the positive shares deterministically. Remainder
/// ties break toward the lower index.
std::vector<std::uint32_t> quantize_weights(const std::vector<double>& shares,
                                            std::uint32_t budget);

/// Compiles an equal-cost table (WeightedFib::equal_cost) for every
/// ordered pair in `pairs` (use routing::all_server_pairs() for the usual
/// case): each distinct next hop of every candidate path from `routing` is
/// installed once at weight 1, in first-seen order. Bumps no te.wcmp.*
/// counter.
WeightedFib compile_fib(const topo::Topology& topo, routing::Routing& routing,
                        const std::vector<std::pair<NodeId, NodeId>>& pairs);

/// Compiles a weighted FIB from a routing scheme's path sets for every
/// ordered pair in `pairs`: per-hop weights are path multiplicities,
/// quantized per (switch, dst) entry to kWeightBudget. Counters:
/// te.wcmp.compiles, te.wcmp.entries, te.wcmp.rules, te.wcmp.weight_total.
WeightedFib compile_wcmp_paths(const topo::Topology& topo, routing::Routing& routing,
                               const std::vector<std::pair<NodeId, NodeId>>& pairs);

}  // namespace flattree::te
