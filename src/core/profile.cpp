#include "core/profile.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "topo/apl.hpp"

namespace flattree::core {

ProfileResult profile_mn(std::uint32_t k, WiringPattern pattern, PodChain chain,
                         std::uint32_t step) {
  if (step == 0)
    step = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::lround(static_cast<double>(k) / 8.0)));
  ProfileResult result;
  result.best_apl = std::numeric_limits<double>::infinity();
  for (std::uint32_t m = step; m <= k / 2; m += step) {
    for (std::uint32_t n = step; m + n <= k / 2; n += step) {
      FlatTreeConfig cfg;
      cfg.k = k;
      cfg.m = m;
      cfg.n = n;
      cfg.pattern = pattern;
      cfg.chain = chain;
      FlatTreeNetwork net(cfg);
      topo::Topology topo = net.build(Mode::GlobalRandom);
      const double apl = topo::server_apl(topo).average;
      result.points.push_back({m, n, apl});
      if (apl < result.best_apl) {
        result.best_apl = apl;
        result.best_m = m;
        result.best_n = n;
      }
    }
  }
  if (result.points.empty())
    throw std::invalid_argument("profile_mn: no feasible (m, n) under m + n <= k/2");
  return result;
}

}  // namespace flattree::core
