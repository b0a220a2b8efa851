#include "te/weighted_fib.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace flattree::te {

const std::vector<WeightedHop> WeightedFib::kEmpty{};

WeightedFib::WeightedFib(std::size_t switches, std::uint32_t weight_budget)
    : tables_(switches), weight_budget_(weight_budget) {
  if (weight_budget == 0)
    throw std::invalid_argument("WeightedFib: weight budget must be positive");
}

WeightedFib WeightedFib::equal_cost(std::size_t switches) {
  WeightedFib fib(switches);
  fib.weight_budget_ = 0;
  return fib;
}

void WeightedFib::add_route(NodeId at, NodeId dst, graph::LinkId link,
                            std::uint32_t weight) {
  auto& hops = tables_.at(at)[dst];
  for (WeightedHop& hop : hops)
    if (hop.link == link) {
      hop.weight += weight;
      return;
    }
  hops.push_back({link, weight});
}

const std::vector<WeightedHop>& WeightedFib::next_hops(NodeId at, NodeId dst) const {
  const auto& table = tables_.at(at);
  auto it = table.find(dst);
  return it == table.end() ? kEmpty : it->second;
}

graph::LinkId WeightedFib::select(NodeId at, NodeId dst, std::uint64_t flow_id) const {
  const auto& hops = next_hops(at, dst);
  std::uint64_t total = 0;
  for (const WeightedHop& hop : hops) total += hop.weight;
  if (total == 0)
    throw std::runtime_error("WeightedFib::select: no positive-weight route installed");
  std::uint64_t h =
      util::mix64(flow_id ^ ((static_cast<std::uint64_t>(at) << 32) | dst));
  std::uint64_t point = h % total;
  for (const WeightedHop& hop : hops) {
    if (point < hop.weight) return hop.link;
    point -= hop.weight;
  }
  return hops.back().link;  // unreachable: point < total by construction
}

std::vector<NodeId> WeightedFib::destinations(NodeId at) const {
  std::vector<NodeId> dsts;
  dsts.reserve(tables_.at(at).size());
  for (const auto& [dst, hops] : tables_.at(at)) dsts.push_back(dst);
  std::sort(dsts.begin(), dsts.end());
  return dsts;
}

std::size_t WeightedFib::rule_count() const {
  std::size_t total = 0;
  for (const auto& table : tables_)
    for (const auto& [dst, hops] : table) total += hops.size();
  return total;
}

std::size_t WeightedFib::entry_count() const {
  std::size_t total = 0;
  for (const auto& table : tables_) total += table.size();
  return total;
}

std::uint64_t WeightedFib::total_weight() const {
  std::uint64_t total = 0;
  for (const auto& table : tables_)
    for (const auto& [dst, hops] : table)
      for (const WeightedHop& hop : hops) total += hop.weight;
  return total;
}

std::size_t WeightedFib::max_rules_per_switch() const {
  std::size_t best = 0;
  for (const auto& table : tables_) {
    std::size_t rules = 0;
    for (const auto& [dst, hops] : table) rules += hops.size();
    best = std::max(best, rules);
  }
  return best;
}

}  // namespace flattree::te
