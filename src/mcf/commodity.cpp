#include "mcf/commodity.hpp"

#include <algorithm>
#include <unordered_map>

namespace flattree::mcf {

std::vector<Commodity> aggregate_to_switches(const topo::Topology& topo,
                                             const std::vector<ServerDemand>& demands) {
  std::unordered_map<std::uint64_t, double> merged;
  for (const ServerDemand& d : demands) {
    NodeId a = topo.host(d.src);
    NodeId b = topo.host(d.dst);
    if (a == b) continue;  // relaxed server links: free
    merged[(static_cast<std::uint64_t>(a) << 32) | b] += d.demand;
  }
  std::vector<Commodity> out;
  out.reserve(merged.size());
  for (const auto& [key, demand] : merged)
    out.push_back({static_cast<NodeId>(key >> 32), static_cast<NodeId>(key & 0xffffffffu),
                   demand});
  std::sort(out.begin(), out.end(), [](const Commodity& x, const Commodity& y) {
    if (x.src != y.src) return x.src < y.src;
    return x.dst < y.dst;
  });
  return out;
}

std::vector<SourceGroup> group_by_source(const std::vector<Commodity>& commodities) {
  std::unordered_map<NodeId, std::size_t> index;
  std::vector<SourceGroup> groups;
  for (const Commodity& c : commodities) {
    auto [it, inserted] = index.try_emplace(c.src, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().src = c.src;
    }
    SourceGroup& g = groups[it->second];
    g.targets.emplace_back(c.dst, c.demand);
    g.total_demand += c.demand;
  }
  return groups;
}

}  // namespace flattree::mcf
