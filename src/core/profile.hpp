#pragma once
// (m, n) profiling (paper Sections 2.4 and 3.2).
//
// Flat-tree converts generic Clos layouts, so the server-distribution knobs
// m (6-port converters -> servers relocatable to core) and n (4-port ->
// servers relocatable to aggregation) are chosen empirically: sweep (m, n)
// under the preferred wiring pattern and keep the pair minimizing the
// average path length over all server pairs in global-random-graph mode.

#include <cstdint>
#include <vector>

#include "core/flat_tree.hpp"

namespace flattree::core {

struct ProfilePoint {
  std::uint32_t m = 0;
  std::uint32_t n = 0;
  double apl = 0.0;
};

struct ProfileResult {
  std::vector<ProfilePoint> points;  ///< sweep order: m ascending, then n
  std::uint32_t best_m = 0;
  std::uint32_t best_n = 0;
  double best_apl = 0.0;
};

/// Sweeps m, n over positive multiples of `step` (the paper uses k/8,
/// rounded to the closest integer) subject to m + n <= k/2, measuring the
/// global-RG-mode server APL. `step` 0 means the paper's k/8.
ProfileResult profile_mn(std::uint32_t k, WiringPattern pattern = WiringPattern::Auto,
                         PodChain chain = PodChain::Ring, std::uint32_t step = 0);

}  // namespace flattree::core
