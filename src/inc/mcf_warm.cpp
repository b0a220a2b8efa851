#include "inc/mcf_warm.hpp"

#include <bit>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "check/certify.hpp"
#include "obs/metrics.hpp"

namespace flattree::inc {

namespace {

obs::Counter c_cold("inc.mcf.cold_solves");
obs::Counter c_dual("inc.mcf.dual_seeds");
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

/// Multiset key: normalized endpoints + exact capacity bits; parallel links
/// match by multiplicity.
struct LinkKey {
  std::uint64_t endpoints;
  std::uint64_t cap_bits;
  bool operator==(const LinkKey&) const = default;
};

struct LinkKeyHash {
  std::size_t operator()(const LinkKey& k) const {
    std::uint64_t h = k.endpoints * 0x9e3779b97f4a7c15ull;
    h ^= k.cap_bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

LinkKey key_of(const graph::Link& l) {
  graph::NodeId lo = l.a < l.b ? l.a : l.b;
  graph::NodeId hi = l.a < l.b ? l.b : l.a;
  return LinkKey{(static_cast<std::uint64_t>(lo) << 32) | hi,
                 std::bit_cast<std::uint64_t>(l.capacity)};
}

}  // namespace

void McfWarmCache::reset() {
  has_prev_ = false;
  prev_ = {};
  result_ = {};
  state_ = {};
  last_tier_ = WarmTier::Cold;
}

mcf::McfResult McfWarmCache::solve(const graph::Graph& g,
                                   const std::vector<mcf::Commodity>& commodities,
                                   const mcf::McfOptions& options) {
  if (options.warm_start != nullptr || options.export_state != nullptr)
    throw std::invalid_argument("McfWarmCache::solve: warm fields are cache-owned");

  mcf::McfOptions opt = options;
  mcf::McfWarmState seed;
  last_tier_ = WarmTier::Cold;

  if (has_prev_ && g.node_count() == prev_.nodes &&
      std::bit_cast<std::uint64_t>(opt.epsilon) ==
          std::bit_cast<std::uint64_t>(prev_.epsilon) &&
      opt.max_phases == prev_.max_phases &&
      opt.max_augmentations == prev_.max_augmentations &&
      opt.allow_unreachable == prev_.allow_unreachable) {
    if (same_links(g.links(), prev_.links) &&
        same_commodities(commodities, prev_.commodities)) {
      // Identical instance: the stored result is what a solve would return.
      // With only the bound request changed, solve cold.
      if (opt.compute_upper_bound == prev_.compute_upper_bound) {
        last_tier_ = WarmTier::ExactResume;
        c_exact.inc();
        return result_;
      }
    } else if (!state_.empty()) {
      // Overlapping instance: carry the duals of every link that survived,
      // matched by key multiset. Orientation may flip between builds, so
      // the forward/backward arc lengths follow the endpoints.
      seed.length.assign(g.link_count() * 2, 0.0);
      std::unordered_map<LinkKey, std::vector<graph::LinkId>, LinkKeyHash> prev_slots;
      for (graph::LinkId id = 0; id < prev_.links.size(); ++id)
        prev_slots[key_of(prev_.links[id])].push_back(id);
      std::unordered_map<LinkKey, std::size_t, LinkKeyHash> used;
      const auto& links = g.links();
      for (graph::LinkId id = 0; id < links.size(); ++id) {
        auto it = prev_slots.find(key_of(links[id]));
        if (it == prev_slots.end()) continue;
        std::size_t& cursor = used[it->first];
        if (cursor >= it->second.size()) continue;
        graph::LinkId pid = it->second[cursor++];
        bool flipped = links[id].a != prev_.links[pid].a;
        seed.length[2 * id] = state_.length[2 * pid + (flipped ? 1 : 0)];
        seed.length[2 * id + 1] = state_.length[2 * pid + (flipped ? 0 : 1)];
      }
      seed.d_sum = state_.d_sum;
      opt.warm_start = &seed;
      last_tier_ = WarmTier::DualSeed;
    }
  }

  mcf::McfWarmState exported;
  if (!opt_.exact_only) opt.export_state = &exported;
  mcf::McfResult result = mcf::max_concurrent_flow(g, commodities, opt);

  if (last_tier_ == WarmTier::DualSeed) {
    c_dual.inc();
    // Certify every dual-seeded result: feasibility, conservation,
    // support, bracket, FPTAS gap (check::certify). A violation here
    // means the seed broke the solver's own evidence — fail loudly.
    check::CertifyOptions copt;
    copt.epsilon = opt.epsilon;
    check::Report report = check::certify(g, commodities, result, copt);
    if (!report.ok())
      throw std::runtime_error("McfWarmCache: warm-started result failed certification\n" +
                               report.to_string());
  } else {
    c_cold.inc();
  }

  prev_.nodes = g.node_count();
  prev_.links = g.links();
  prev_.commodities = commodities;
  prev_.epsilon = opt.epsilon;
  prev_.max_phases = opt.max_phases;
  prev_.max_augmentations = opt.max_augmentations;
  prev_.allow_unreachable = opt.allow_unreachable;
  prev_.compute_upper_bound = opt.compute_upper_bound;
  result_ = result;
  // A truncated run's lengths never seed the next instance.
  state_ = result.truncated ? mcf::McfWarmState{} : std::move(exported);
  has_prev_ = true;
  return result;
}

}  // namespace flattree::inc
