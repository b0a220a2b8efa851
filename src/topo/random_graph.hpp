#pragma once
// Jellyfish-style random graph built from the same equipment as a fat-tree
// [Singla et al., NSDI'12], the paper's performance-optimal baseline.
//
// All 5k^2/4 switches (k^2 pod switches + k^2/4 cores) are treated as equal:
// the k^3/4 servers are spread round-robin (so per-switch server counts
// differ by at most one), and every remaining port joins a uniform random
// simple graph (no self-loops, no parallel links) built with the
// configuration model plus edge-swap repair.

#include <cstdint>

#include "topo/fat_tree.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace flattree::topo {

/// Same equipment as fat-tree(k): 5k^2/4 switches with k ports, k^3/4
/// servers. Switch kinds/pod labels are preserved from the fat-tree
/// inventory for equipment accounting, but play no topological role.
Topology build_jellyfish_like_fat_tree(std::uint32_t k, util::Rng& rng);

/// Random regular-ish multiport wiring helper: connects `stubs[i]` free
/// ports of node i into a simple random graph (degree(i) == stubs[i] when
/// the stub sum is even and a simple graph exists; best effort repair
/// otherwise). Returns the added (a,b) pairs. Exposed for the two-stage
/// builder and for tests.
std::vector<std::pair<NodeId, NodeId>> random_simple_pairing(
    const std::vector<std::uint32_t>& stubs, util::Rng& rng,
    std::uint32_t max_attempts = 64);

}  // namespace flattree::topo
