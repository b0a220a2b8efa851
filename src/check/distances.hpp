#pragma once
// Certificate for single-source hop-distance arrays.
//
// This validator proves a distance array correct against the *current*
// graph without trusting how it was produced (the bit-parallel batched
// BFS writes its rows word by word). The three local conditions below are jointly sound AND
// complete for unit-weight distances, so a patched array passes iff it is
// bitwise what a cold BFS from the same source would compute:
//
//   1. anchor     — dist[source] == 0 and no other node has distance 0.
//   2. step       — across every link, |dist[a] - dist[b]| <= 1, where
//                   "unreachable" on one side only is a violation (a
//                   link cannot join a reached and an unreached node).
//   3. support    — every reached node v != source has a neighbor at
//                   exactly dist[v] - 1 (a witness predecessor on some
//                   shortest path).
//
// Why this is complete: step makes dist 1-Lipschitz along links, so
// following any real path of length L from the source, dist can grow by
// at most 1 per hop — dist[v] <= L for every path, i.e. dist[v] <= true
// distance. Support chains a witness predecessor downward from v: each
// step reduces dist by exactly 1 and the only node at 0 is the source
// (anchor), so the chain is a real path of length dist[v] — true distance
// <= dist[v]. Hence equality. Step also forbids a link joining a
// reached and an unreached node, so the reached set is exactly the
// source's component.
//
// Cost: O(V + E) per source. Used by the benches' --selfcheck audit of
// sampled batched rows and by the perfbench convert-apl check; reports
// through check::Report like every other validator ("dist.*" codes).

#include <cstdint>
#include <vector>

#include "check/report.hpp"
#include "graph/graph.hpp"

namespace flattree::check {

/// Certifies that `dist` is exactly the hop-distance array of a BFS from
/// `source` on the links of `g` (graph::kUnreachable marks
/// unreached nodes). Throws std::invalid_argument only on API misuse
/// (source out of range); wrong *contents* are reported, never thrown.
Report certify_distances(const graph::Graph& g, graph::NodeId source,
                         const std::vector<std::uint32_t>& dist);

}  // namespace flattree::check
