#include "te/weighted_fib.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace flattree::te {

const std::vector<WeightedHop> WeightedFib::kEmpty{};

WeightedFib::WeightedFib(std::size_t switches)
    : switches_(switches), slot_(switches * switches, kNoEntry), weight_budget_(kWeightBudget) {}

WeightedFib WeightedFib::equal_cost(std::size_t switches) {
  WeightedFib fib(switches);
  fib.weight_budget_ = 0;
  return fib;
}

const std::uint32_t* WeightedFib::row(NodeId at) const {
  if (at >= switches_) throw std::out_of_range("WeightedFib: switch out of range");
  return slot_.data() + static_cast<std::size_t>(at) * switches_;
}

void WeightedFib::add_route(NodeId at, NodeId dst, graph::LinkId link,
                            std::uint32_t weight) {
  if (at >= switches_ || dst >= switches_)
    throw std::out_of_range("WeightedFib::add_route: switch out of range");
  std::uint32_t& slot = slot_[static_cast<std::size_t>(at) * switches_ + dst];
  if (slot == kNoEntry) {
    slot = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& entry = entries_[slot];
  for (WeightedHop& hop : entry.hops)
    if (hop.link == link) {
      // The cached sum follows the stored (uint32) weight exactly.
      entry.weight_sum -= hop.weight;
      hop.weight += weight;
      entry.weight_sum += hop.weight;
      return;
    }
  entry.hops.push_back({link, weight});
  entry.weight_sum += weight;
}

const std::vector<WeightedHop>& WeightedFib::next_hops(NodeId at, NodeId dst) const {
  const std::uint32_t* r = row(at);
  if (dst >= switches_ || r[dst] == kNoEntry) return kEmpty;
  return entries_[r[dst]].hops;
}

graph::LinkId WeightedFib::select(NodeId at, NodeId dst, std::uint64_t flow_id) const {
  const std::uint32_t* r = row(at);
  const std::uint32_t slot = dst < switches_ ? r[dst] : kNoEntry;
  if (slot == kNoEntry || entries_[slot].weight_sum == 0)
    throw std::runtime_error("WeightedFib::select: no positive-weight route installed");
  const Entry& entry = entries_[slot];
  std::uint64_t h =
      util::mix64(flow_id ^ ((static_cast<std::uint64_t>(at) << 32) | dst));
  std::uint64_t point = h % entry.weight_sum;
  for (const WeightedHop& hop : entry.hops) {
    if (point < hop.weight) return hop.link;
    point -= hop.weight;
  }
  return entry.hops.back().link;  // unreachable: point < weight_sum by construction
}

std::vector<NodeId> WeightedFib::destinations(NodeId at) const {
  const std::uint32_t* r = row(at);
  std::vector<NodeId> dsts;
  for (NodeId dst = 0; dst < switches_; ++dst)
    if (r[dst] != kNoEntry) dsts.push_back(dst);
  return dsts;
}

std::size_t WeightedFib::rule_count() const {
  std::size_t total = 0;
  for (const Entry& entry : entries_) total += entry.hops.size();
  return total;
}

std::uint64_t WeightedFib::total_weight() const {
  std::uint64_t total = 0;
  for (const Entry& entry : entries_) total += entry.weight_sum;
  return total;
}

}  // namespace flattree::te
