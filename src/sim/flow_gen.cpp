#include "sim/flow_gen.hpp"

#include <cmath>
#include <stdexcept>

namespace flattree::sim {

double FlowSizeDist::sample(util::Rng& rng) const {
  if (rng.chance(p_short)) return rng.uniform(short_lo, short_hi);
  // Bounded Pareto inverse-CDF sampling.
  double u = rng.uniform();
  double la = std::pow(long_lo, alpha), ha = std::pow(long_hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

double FlowSizeDist::mean() const {
  double short_mean = 0.5 * (short_lo + short_hi);
  double long_mean;
  if (alpha == 1.0) {
    long_mean = std::log(long_hi / long_lo) * long_lo * long_hi / (long_hi - long_lo);
  } else {
    // Bounded Pareto mean: L^a/(1-(L/H)^a) * a/(a-1) * (L^{1-a} - H^{1-a}).
    long_mean = std::pow(long_lo, alpha) / (1.0 - std::pow(long_lo / long_hi, alpha)) *
                alpha / (alpha - 1.0) *
                (std::pow(long_lo, 1.0 - alpha) - std::pow(long_hi, 1.0 - alpha));
  }
  return p_short * short_mean + (1.0 - p_short) * long_mean;
}

std::vector<SimFlow> poisson_flows(std::uint32_t count, double arrival_rate,
                                   std::uint32_t total_servers, const FlowSizeDist& dist,
                                   util::Rng& rng) {
  if (total_servers < 2)
    throw std::invalid_argument("poisson_flows: need at least two servers");
  if (!(arrival_rate > 0.0) || !std::isfinite(arrival_rate))
    throw std::invalid_argument("poisson_flows: arrival rate must be finite and positive");
  std::vector<SimFlow> flows;
  flows.reserve(count);
  double t = 0.0;
  for (std::uint32_t i = 0; i < count; ++i) {
    t += rng.exponential(arrival_rate);
    SimFlow f;
    f.arrival = t;
    f.size = dist.sample(rng);
    f.src = static_cast<topo::ServerId>(rng.below(total_servers));
    do {
      f.dst = static_cast<topo::ServerId>(rng.below(total_servers));
    } while (f.dst == f.src);
    flows.push_back(f);
  }
  return flows;
}

}  // namespace flattree::sim
