#include "te/wcmp.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace flattree::te {

namespace {

obs::Counter c_wcmp_compiles("te.wcmp.compiles");
obs::Counter c_wcmp_entries("te.wcmp.entries");
obs::Counter c_wcmp_rules("te.wcmp.rules");
obs::Counter c_wcmp_weight("te.wcmp.weight_total");

void count_table(const WeightedFib& fib) {
  c_wcmp_compiles.inc();
  c_wcmp_entries.add(fib.entry_count());
  c_wcmp_rules.add(fib.rule_count());
  c_wcmp_weight.add(fib.total_weight());
}

/// Installs one quantized entry, pruning zero-weight rules.
void install_entry(WeightedFib& fib, NodeId at, NodeId dst,
                   const std::vector<graph::LinkId>& links,
                   const std::vector<double>& shares) {
  std::vector<std::uint32_t> weights = quantize_weights(shares, kWeightBudget);
  for (std::size_t i = 0; i < links.size(); ++i)
    if (weights[i] > 0) fib.add_route(at, dst, links[i], weights[i]);
}

}  // namespace

std::vector<std::uint32_t> quantize_weights(const std::vector<double>& shares,
                                            std::uint32_t budget) {
  if (budget == 0) throw std::invalid_argument("quantize_weights: zero budget");
  double total = 0.0;
  for (double s : shares) total += std::max(s, 0.0);
  if (!(total > 0.0))
    throw std::invalid_argument("quantize_weights: no positive share");

  std::vector<std::uint32_t> weights(shares.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;  // (-remainder, index)
  remainders.reserve(shares.size());
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    double share = std::max(shares[i], 0.0);
    // Divide before scaling so a finite total keeps the fraction in [0, 1];
    // an infinite share or total yields NaN (inf/inf) or 0 (finite/inf)
    // here, never an out-of-range cast (which would be UB). Non-finite or
    // oversized `exact` degrades to "no floor" / "full budget" and the
    // handout loops below conserve the remainder deterministically.
    double exact = share / total * static_cast<double>(budget);
    if (!(exact >= 0.0)) exact = 0.0;  // NaN or negative
    if (exact > static_cast<double>(budget)) exact = static_cast<double>(budget);
    std::uint32_t floor_w = static_cast<std::uint32_t>(exact);
    weights[i] = floor_w;
    assigned += floor_w;
    remainders.emplace_back(-(exact - static_cast<double>(floor_w)), i);
  }
  // Hand out the leftover units by descending remainder; sort is on
  // (-remainder, index) so ties deterministically favor the lower index.
  std::sort(remainders.begin(), remainders.end());
  // Guard the unsigned subtraction: should floor rounding ever land past
  // the budget, an unchecked `budget - assigned` would underflow and the
  // drain loop below would hand out ~2^64 units. Shave the excess by
  // *ascending* remainder (reverse of the handout order) instead.
  while (assigned > budget) {
    bool shaved = false;
    for (auto it = remainders.rbegin(); assigned > budget && it != remainders.rend();
         ++it) {
      if (weights[it->second] > 0) {
        --weights[it->second];
        --assigned;
        shaved = true;
      }
    }
    if (!shaved)
      throw std::logic_error("quantize_weights: over-assignment with no weight to shave");
  }
  std::uint64_t leftover = budget - assigned;
  for (std::size_t r = 0; leftover > 0 && r < remainders.size(); ++r) {
    ++weights[remainders[r].second];
    --leftover;
  }
  // Exact conservation is an invariant validators check, so drain any
  // residue round-robin over the positive shares — and fail loudly rather
  // than spin if no positive share exists to absorb it.
  while (leftover > 0) {
    bool drained = false;
    for (std::size_t i = 0; leftover > 0 && i < weights.size(); ++i) {
      if (shares[i] > 0.0) {
        ++weights[i];
        --leftover;
        drained = true;
      }
    }
    if (!drained)
      throw std::logic_error("quantize_weights: residue with no positive share to absorb");
  }
  return weights;
}

WeightedFib compile_fib(const topo::Topology& topo, routing::Routing& routing,
                        const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  WeightedFib fib = WeightedFib::equal_cost(topo.switch_count());
  for (auto [src, dst] : pairs) {
    if (src == dst) continue;
    for (const graph::Path& path : routing.paths(src, dst))
      for (std::size_t i = 0; i < path.links.size(); ++i) {
        const auto& hops = fib.next_hops(path.nodes[i], dst);
        bool installed = std::any_of(hops.begin(), hops.end(), [&](const WeightedHop& h) {
          return h.link == path.links[i];
        });
        if (!installed) fib.add_route(path.nodes[i], dst, path.links[i], 1);
      }
  }
  return fib;
}

WeightedFib compile_wcmp_paths(const topo::Topology& topo, routing::Routing& routing,
                               const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  WeightedFib fib(topo.switch_count());
  // Multiplicity tally: (at, dst) -> link -> count. Ordered maps keep the
  // installation order (and thus select()'s weight-line layout) a pure
  // function of the pair set, independent of hash-map iteration order.
  std::map<std::pair<NodeId, NodeId>, std::map<graph::LinkId, double>> tally;
  for (auto [src, dst] : pairs) {
    if (src == dst) continue;
    for (const graph::Path& path : routing.paths(src, dst))
      for (std::size_t i = 0; i < path.links.size(); ++i)
        tally[{path.nodes[i], dst}][path.links[i]] += 1.0;
  }
  for (const auto& [key, links] : tally) {
    std::vector<graph::LinkId> ids;
    std::vector<double> shares;
    ids.reserve(links.size());
    shares.reserve(links.size());
    for (const auto& [link, count] : links) {
      ids.push_back(link);
      shares.push_back(count);
    }
    install_entry(fib, key.first, key.second, ids, shares);
  }
  count_table(fib);
  return fib;
}

}  // namespace flattree::te
