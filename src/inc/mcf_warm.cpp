#include "inc/mcf_warm.hpp"

#include <bit>

#include "obs/metrics.hpp"

namespace flattree::inc {

namespace {

obs::Counter c_cold("inc.mcf.cold_solves");
obs::Counter c_exact("inc.mcf.exact_resumes");

bool same_links(const std::vector<graph::Link>& a, const std::vector<graph::Link>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b) return false;
    if (std::bit_cast<std::uint64_t>(a[i].capacity) !=
        std::bit_cast<std::uint64_t>(b[i].capacity))
      return false;
  }
  return true;
}

bool same_commodities(const std::vector<mcf::Commodity>& a,
                      const std::vector<mcf::Commodity>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].src != b[i].src || a[i].dst != b[i].dst) return false;
    if (std::bit_cast<std::uint64_t>(a[i].demand) !=
        std::bit_cast<std::uint64_t>(b[i].demand))
      return false;
  }
  return true;
}

}  // namespace

void McfWarmCache::reset() {
  has_prev_ = false;
  prev_ = {};
  result_ = {};
  last_tier_ = WarmTier::Cold;
}

mcf::McfResult McfWarmCache::solve(const graph::Graph& g,
                                   const std::vector<mcf::Commodity>& commodities,
                                   const mcf::McfOptions& options) {
  if (has_prev_ && options == prev_.options && g.node_count() == prev_.nodes &&
      same_links(g.links(), prev_.links) &&
      same_commodities(commodities, prev_.commodities)) {
    // Identical instance: the stored result is what a solve would return.
    last_tier_ = WarmTier::ExactResume;
    c_exact.inc();
    return result_;
  }

  last_tier_ = WarmTier::Cold;
  c_cold.inc();
  result_ = mcf::max_concurrent_flow(g, commodities, options);
  prev_ = {g.node_count(), g.links(), commodities, options};
  has_prev_ = true;
  return result_;
}

}  // namespace flattree::inc
