#pragma once
// Synthetic flow workload generation for the flow-level simulator.
//
// Production flow traces are proprietary; per DESIGN.md we substitute a
// synthetic heavy-tailed mixture calibrated to the well-known data center
// shape (most flows short, most bytes in long flows): with probability
// `p_short` sizes are uniform in [short_lo, short_hi], otherwise bounded
// Pareto(alpha) over [long_lo, long_hi]. Arrivals are Poisson.

#include <cstdint>
#include <vector>

#include "sim/flow_sim.hpp"
#include "util/rng.hpp"

namespace flattree::sim {

/// Short-uniform / long-Pareto flow size mixture (see header comment).
struct FlowSizeDist {
  double p_short = 0.8;
  double short_lo = 0.01, short_hi = 0.1;
  double long_lo = 1.0, long_hi = 100.0;
  double alpha = 1.2;  ///< Pareto tail index

  double sample(util::Rng& rng) const;
  /// Analytic mean of the mixture.
  double mean() const;
};

/// `count` flows between uniform random distinct server pairs, Poisson
/// arrivals with the given rate, sizes from `dist`. Throws
/// std::invalid_argument on fewer than two servers or a rate that is not
/// finite and positive.
std::vector<SimFlow> poisson_flows(std::uint32_t count, double arrival_rate,
                                   std::uint32_t total_servers, const FlowSizeDist& dist,
                                   util::Rng& rng);

}  // namespace flattree::sim
