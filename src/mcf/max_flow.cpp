#include "mcf/max_flow.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::mcf {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Residual capacities at or below this count as saturated.
constexpr double kResidualFloor = 1e-12;
/// A max-flow within this relative shortfall of lambda * D saturates every
/// target arc, so lambda is feasible.
constexpr double kSaturation = 1e-9;

obs::Counter c_solves("mcf.maxflow.solves");
obs::Counter c_max_flows("mcf.maxflow.max_flows");

}  // namespace

MaxFlow::MaxFlow(std::size_t nodes) : adjacency_(nodes) {}

std::size_t MaxFlow::add_arc(NodeId u, NodeId v, double capacity) {
  if (u >= adjacency_.size() || v >= adjacency_.size())
    throw std::out_of_range("MaxFlow::add_arc: node out of range");
  if (capacity < 0) throw std::invalid_argument("MaxFlow::add_arc: negative capacity");
  adjacency_[u].push_back({v, capacity, adjacency_[v].size()});
  adjacency_[v].push_back({u, 0.0, adjacency_[u].size() - 1});
  arc_index_.emplace_back(u, adjacency_[u].size() - 1);
  original_capacity_.push_back(capacity);
  return arc_index_.size() - 1;
}

void MaxFlow::set_capacity(std::size_t arc, double capacity) {
  if (capacity < 0) throw std::invalid_argument("MaxFlow::set_capacity: negative capacity");
  original_capacity_.at(arc) = capacity;
}

bool MaxFlow::bfs_levels(NodeId s, NodeId t) {
  level_.assign(adjacency_.size(), -1);
  std::vector<NodeId> queue{s};
  level_[s] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    NodeId u = queue[head];
    for (const Arc& arc : adjacency_[u]) {
      if (arc.capacity > kResidualFloor && level_[arc.to] < 0) {
        level_[arc.to] = level_[u] + 1;
        queue.push_back(arc.to);
      }
    }
  }
  return level_[t] >= 0;
}

double MaxFlow::push(NodeId u, NodeId t, double limit) {
  if (u == t) return limit;
  for (std::size_t& i = iter_[u]; i < adjacency_[u].size(); ++i) {
    Arc& arc = adjacency_[u][i];
    if (arc.capacity <= kResidualFloor || level_[arc.to] != level_[u] + 1) continue;
    double pushed = push(arc.to, t, std::min(limit, arc.capacity));
    if (pushed > 0) {
      arc.capacity -= pushed;
      adjacency_[arc.to][arc.rev].capacity += pushed;
      return pushed;
    }
  }
  return 0.0;
}

double MaxFlow::solve(NodeId s, NodeId t) {
  if (s == t) throw std::invalid_argument("MaxFlow::solve: s == t");
  last_source_ = s;
  // Reset residuals to the original capacities.
  for (std::size_t a = 0; a < arc_index_.size(); ++a) {
    auto [u, slot] = arc_index_[a];
    Arc& fwd = adjacency_[u][slot];
    Arc& rev = adjacency_[fwd.to][fwd.rev];
    fwd.capacity = original_capacity_[a];
    rev.capacity = 0.0;
  }
  double total = 0.0;
  while (bfs_levels(s, t)) {
    iter_.assign(adjacency_.size(), 0);
    while (true) {
      double pushed = push(s, t, kInf);
      if (pushed <= 0) break;
      total += pushed;
    }
  }
  return total;
}

double MaxFlow::arc_flow(std::size_t arc) const {
  auto [u, slot] = arc_index_.at(arc);
  return original_capacity_[arc] - adjacency_[u][slot].capacity;
}

std::vector<std::uint8_t> MaxFlow::source_side() const {
  std::vector<std::uint8_t> side(adjacency_.size(), 0);
  std::vector<NodeId> queue{last_source_};
  side[last_source_] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (const Arc& arc : adjacency_[queue[head]])
      if (arc.capacity > kResidualFloor && side[arc.to] == 0) {
        side[arc.to] = 1;
        queue.push_back(arc.to);
      }
  return side;
}

McfResult exact_concurrent_flow(const graph::Graph& g,
                                const std::vector<Commodity>& commodities,
                                SharedEndpoint shared) {
  if (commodities.empty()) throw std::invalid_argument("exact_concurrent_flow: no commodities");
  // Solved from the shared endpoint (the root) towards the other ends (the
  // leaves). A one-sink instance runs from its sink on the same symmetric
  // network and is mapped back at the end.
  const bool from_sink = shared == SharedEndpoint::Sink;
  auto root_of = [&](const Commodity& c) { return from_sink ? c.dst : c.src; };
  auto leaf_of = [&](const Commodity& c) { return from_sink ? c.src : c.dst; };
  const NodeId root = root_of(commodities.front());
  const std::size_t n = g.node_count();
  std::vector<double> leaf_demand(n, 0.0);
  double total_demand = 0.0;
  for (const Commodity& c : commodities) {
    if (root_of(c) != root)
      throw std::invalid_argument("exact_concurrent_flow: endpoint not shared");
    if (c.src == c.dst) throw std::invalid_argument("exact_concurrent_flow: src == dst");
    leaf_demand[leaf_of(c)] += c.demand;
    total_demand += c.demand;
  }
  const auto dist = graph::bfs_distances(g, root);
  for (const Commodity& c : commodities)
    if (dist[leaf_of(c)] == graph::kUnreachable)
      throw std::invalid_argument("max_concurrent_flow: commodity disconnected");

  OBS_SPAN("mcf.maxflow");
  c_solves.inc();

  // Arc 2l = link l a->b and 2l+1 = b->a, as in McfResult::arc_flow; then
  // one arc per leaf into the super-sink, ascending by node.
  const auto super_sink = static_cast<NodeId>(n);
  const auto& links = g.links();
  MaxFlow mf(n + 1);
  for (const graph::Link& link : links) {
    mf.add_arc(link.a, link.b, link.capacity);
    mf.add_arc(link.b, link.a, link.capacity);
  }
  std::vector<NodeId> leaves;
  std::vector<std::size_t> leaf_arcs;
  for (NodeId v = 0; v < n; ++v)
    if (leaf_demand[v] > 0.0) {
      leaves.push_back(v);
      leaf_arcs.push_back(mf.add_arc(v, super_sink, 0.0));
    }

  // cap(out of S) / d(leaves outside S). Every link across the cut has
  // exactly one arc leaving S, of the link's capacity.
  auto cut_ratio = [&](const std::vector<std::uint8_t>& side) {
    double cap = 0.0, demand = 0.0;
    for (const graph::Link& link : links)
      if (side[link.a] != side[link.b]) cap += link.capacity;
    for (NodeId v : leaves)
      if (side[v] == 0) demand += leaf_demand[v];
    return demand > 0.0 ? cap / demand : kInf;
  };

  // Newton (Dinkelbach) steps from the root's own cut.
  std::vector<std::uint8_t> cut(n, 0);
  cut[root] = 1;
  double lambda = cut_ratio(cut);
  std::uint64_t max_flows = 0;
  while (true) {
    for (std::size_t i = 0; i < leaves.size(); ++i)
      mf.set_capacity(leaf_arcs[i], lambda * leaf_demand[leaves[i]]);
    const double flow = mf.solve(root, super_sink);
    ++max_flows;
    if (flow >= lambda * total_demand * (1.0 - kSaturation)) break;
    // Short of lambda * D: the residual-reachable set is a cut whose ratio
    // lies strictly below lambda. The super-sink is never reachable after
    // a max-flow, so dropping its entry leaves a node set of g.
    std::vector<std::uint8_t> side = mf.source_side();
    side.resize(n);
    const double next = cut_ratio(side);
    // Rounding can stall the decrease; then the flow at lambda stands as
    // the lower bound and the last cut as the upper one.
    if (!(next < lambda)) break;
    lambda = next;
    cut = std::move(side);
  }
  c_max_flows.add(max_flows);

  McfResult result;
  result.lambda_upper = lambda;
  result.arc_flow.assign(links.size() * 2, 0.0);
  for (std::size_t l = 0; l < links.size(); ++l) {
    // Cancel flow running both ways on one link; the divergence is
    // unchanged and the flow is still within capacity.
    double fwd = std::max(0.0, mf.arc_flow(2 * l));
    double rev = std::max(0.0, mf.arc_flow(2 * l + 1));
    const double both = std::min(fwd, rev);
    fwd -= both;
    rev -= both;
    // Run from the sink, a flow along a -> b is the incast flow b -> a.
    result.arc_flow[2 * l] = from_sink ? rev : fwd;
    result.arc_flow[2 * l + 1] = from_sink ? fwd : rev;
    result.max_congestion =
        std::max(result.max_congestion, std::max(fwd, rev) / links[l].capacity);
  }
  // Each leaf's delivered flow is split over its commodities by demand.
  std::vector<double> delivered(n, 0.0);
  for (std::size_t i = 0; i < leaves.size(); ++i)
    delivered[leaves[i]] = std::max(0.0, mf.arc_flow(leaf_arcs[i]));
  result.commodity_routed.resize(commodities.size());
  result.lambda_lower = kInf;
  for (std::size_t i = 0; i < commodities.size(); ++i) {
    const Commodity& c = commodities[i];
    const NodeId leaf = leaf_of(c);
    result.commodity_routed[i] = delivered[leaf] * (c.demand / leaf_demand[leaf]);
    result.lambda_lower =
        std::min(result.lambda_lower, result.commodity_routed[i] / c.demand);
  }
  if (from_sink)
    for (std::uint8_t& in : cut) in = in == 0 ? 1 : 0;
  result.cut_source_side = std::move(cut);
  return result;
}

}  // namespace flattree::mcf
