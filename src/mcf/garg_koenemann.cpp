#include "mcf/garg_koenemann.hpp"

#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "mcf/max_flow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::mcf {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-solve / per-phase / per-augmentation accounting. Nothing is recorded
// per arc, so the enabled-path overhead stays well under the 3% budget on
// the solver's wall time (perfbench's trace.overhead.fig-throughput
// measures it).
obs::Counter c_gk_solves("mcf.gk.solves");
obs::Counter c_gk_phases("mcf.gk.phases");
obs::Counter c_gk_augmentations("mcf.gk.augmentations");
obs::Counter c_gk_dijkstras("mcf.gk.dijkstra_runs");
obs::Counter c_gk_stale("mcf.gk.stale_retrees");
obs::Counter c_gk_unreachable("mcf.gk.unreachable_commodities");
obs::Counter c_gk_budget_stops("mcf.gk.budget_stops");
// Dual-bound trajectory: D(l) grows from ~0 to 1 across phases; the
// histogram records its value at every phase end, so the bucket profile
// shows how the certificate tightened over the run.
obs::Histogram h_gk_dsum("mcf.gk.d_sum_per_phase",
                         obs::Histogram::linear_bounds(0.1, 0.1, 10));
obs::Gauge g_gk_lambda_lower("mcf.gk.last_lambda_lower");
obs::Gauge g_gk_lambda_upper("mcf.gk.last_lambda_upper");

/// Directed view of an undirected Graph: arc 2l = link l (a->b),
/// arc 2l+1 = (b->a), each with the full link capacity.
struct DirectedNet {
  std::size_t nodes = 0;
  std::vector<NodeId> head;       ///< arc -> destination node
  std::vector<double> cap;        ///< arc capacity
  std::vector<std::uint32_t> offset;  ///< CSR: arcs leaving each node
  std::vector<std::uint32_t> arcs;    ///< CSR payload: arc ids

  explicit DirectedNet(const graph::Graph& g) {
    nodes = g.node_count();
    const auto& links = g.links();
    head.resize(links.size() * 2);
    cap.resize(links.size() * 2);
    offset.assign(nodes + 1, 0);
    for (std::size_t l = 0; l < links.size(); ++l) {
      head[2 * l] = links[l].b;
      head[2 * l + 1] = links[l].a;
      cap[2 * l] = cap[2 * l + 1] = links[l].capacity;
      ++offset[links[l].a + 1];
      ++offset[links[l].b + 1];
    }
    for (std::size_t v = 1; v <= nodes; ++v) offset[v] += offset[v - 1];
    arcs.resize(links.size() * 2);
    std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (std::size_t l = 0; l < links.size(); ++l) {
      arcs[cursor[links[l].a]++] = static_cast<std::uint32_t>(2 * l);
      arcs[cursor[links[l].b]++] = static_cast<std::uint32_t>(2 * l + 1);
    }
  }

  std::size_t arc_count() const { return head.size(); }
};

struct Tree {
  std::vector<double> dist;
  std::vector<std::uint32_t> parent_arc;  ///< arc entering each node
};

void dijkstra(const DirectedNet& net, NodeId src, const std::vector<double>& length,
              Tree& tree) {
  tree.dist.assign(net.nodes, kInf);
  tree.parent_arc.assign(net.nodes, ~0u);
  struct Entry {
    double d;
    NodeId v;
    bool operator>(const Entry& o) const { return d > o.d; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  tree.dist[src] = 0.0;
  heap.push({0.0, src});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > tree.dist[u]) continue;
    for (std::uint32_t idx = net.offset[u]; idx < net.offset[u + 1]; ++idx) {
      std::uint32_t a = net.arcs[idx];
      NodeId v = net.head[a];
      double nd = d + length[a];
      if (nd < tree.dist[v]) {
        tree.dist[v] = nd;
        tree.parent_arc[v] = a;
        heap.push({nd, v});
      }
    }
  }
}

/// Tail node of an arc (the node it leaves).
NodeId arc_tail(const graph::Graph& g, std::uint32_t arc) {
  const graph::Link& l = g.link(arc / 2);
  return arc % 2 == 0 ? l.a : l.b;
}

/// The Garg-Koenemann loop, for instances with several sources and
/// several sinks; inputs are already checked by max_concurrent_flow.
McfResult gk_solve(const graph::Graph& g, const std::vector<Commodity>& commodities,
                   const McfOptions& options);

}  // namespace

McfResult max_concurrent_flow(const graph::Graph& g,
                              const std::vector<Commodity>& commodities,
                              const McfOptions& options) {
  if (commodities.empty())
    throw std::invalid_argument("max_concurrent_flow: no commodities");
  for (const Commodity& c : commodities) {
    if (c.src == c.dst) throw std::invalid_argument("max_concurrent_flow: src == dst");
    if (c.demand <= 0.0)
      throw std::invalid_argument("max_concurrent_flow: non-positive demand");
  }
  if (!(options.epsilon > 0.0 && options.epsilon < 1.0))  // NaN fails too
    throw std::invalid_argument("max_concurrent_flow: epsilon outside (0,1)");

  // Zero or negative capacities would turn delta / cap into inf/NaN and
  // poison d_sum and every Dijkstra run; reject them before any work.
  for (const graph::Link& link : g.links()) {
    if (!(link.capacity > 0.0) || !std::isfinite(link.capacity))
      throw std::invalid_argument(
          "max_concurrent_flow: non-positive or non-finite link capacity");
  }
  // -- unreachable-commodity pre-pass (allow_unreachable) ------------------
  // Arcs are symmetric (full-duplex links), so directed reachability
  // classes are exactly the undirected connected components; a union-find
  // over the link list labels them without touching the CSR.
  if (options.allow_unreachable) {
    std::vector<NodeId> parent(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) parent[v] = v;
    auto find = [&](NodeId v) {
      while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
      }
      return v;
    };
    for (const graph::Link& link : g.links()) parent[find(link.a)] = find(link.b);

    std::vector<std::uint32_t> unreachable;
    std::vector<Commodity> reachable;
    std::vector<std::size_t> reach_index;
    for (std::size_t i = 0; i < commodities.size(); ++i) {
      if (find(commodities[i].src) != find(commodities[i].dst))
        unreachable.push_back(static_cast<std::uint32_t>(i));
      else {
        reachable.push_back(commodities[i]);
        reach_index.push_back(i);
      }
    }
    if (!unreachable.empty()) {
      c_gk_unreachable.add(unreachable.size());
      double total_demand = 0.0, reachable_demand = 0.0;
      for (const Commodity& c : commodities) total_demand += c.demand;
      for (const Commodity& c : reachable) reachable_demand += c.demand;

      McfResult out;
      if (reachable.empty()) {
        // Every commodity disconnected: the degenerate zero solve. Both
        // bounds are 0 (nothing routable, and zero is a valid optimum for
        // the empty sub-instance), not a truncation.
        out.arc_flow.assign(g.link_count() * 2, 0.0);
      } else {
        // Certified solve of the reachable sub-instance.
        McfOptions sub = options;
        sub.allow_unreachable = false;
        out = max_concurrent_flow(g, reachable, sub);
      }
      std::vector<double> routed(commodities.size(), 0.0);
      for (std::size_t j = 0; j < reach_index.size(); ++j)
        routed[reach_index[j]] = out.commodity_routed[j];
      out.commodity_routed = std::move(routed);
      out.unreachable = std::move(unreachable);
      out.served_fraction = reachable_demand / total_demand;
      return out;
    }
  }

  // -- solver dispatch -------------------------------------------------------
  auto shared = [&](NodeId Commodity::*end) {
    for (const Commodity& c : commodities)
      if (c.*end != commodities.front().*end) return false;
    return true;
  };
  if (shared(&Commodity::src))
    return exact_concurrent_flow(g, commodities, SharedEndpoint::Source);
  if (shared(&Commodity::dst))
    return exact_concurrent_flow(g, commodities, SharedEndpoint::Sink);
  return gk_solve(g, commodities, options);
}

namespace {

McfResult gk_solve(const graph::Graph& g, const std::vector<Commodity>& commodities,
                   const McfOptions& options) {
  const double eps = options.epsilon;
  OBS_SPAN("gk.solve");
  c_gk_solves.inc();

  DirectedNet net(g);
  const std::size_t m = net.arc_count();
  if (m == 0) throw std::invalid_argument("max_concurrent_flow: empty graph");

  const double delta = std::pow(static_cast<double>(m) / (1.0 - eps), -1.0 / eps);
  std::vector<double> length(m);
  std::vector<double> flow(m, 0.0);
  for (std::size_t a = 0; a < m; ++a) length[a] = delta / net.cap[a];
  double d_sum = delta * static_cast<double>(m);  // D(l) = sum length*cap

  auto groups = group_by_source(commodities);
  // Per-(group,target) routed totals for the primal bound.
  std::vector<std::vector<double>> routed(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi)
    routed[gi].assign(groups[gi].targets.size(), 0.0);

  // Commodity index -> (group, target) slot. group_by_source appends
  // targets in input order within each group, so replaying that order maps
  // the caller's commodity indices onto (group, target) slots exactly;
  // used for commodity_routed.
  std::vector<std::pair<std::size_t, std::size_t>> slot_of(commodities.size());
  {
    std::unordered_map<NodeId, std::size_t> group_index;
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
      group_index.emplace(groups[gi].src, gi);
    std::vector<std::size_t> next_target(groups.size(), 0);
    for (std::size_t i = 0; i < commodities.size(); ++i) {
      std::size_t gi = group_index.at(commodities[i].src);
      slot_of[i] = {gi, next_target[gi]++};
    }
  }

  McfResult result;

  std::vector<Tree> trees(groups.size());
  std::vector<std::uint32_t> path;  // arcs target<-...<-source (reverse order)

  bool done = false;
  // Augmentation budget (McfOptions::max_augmentations), checked inside
  // the augmentation loop; 0 disables it.
  const std::uint64_t max_aug = options.max_augmentations;
  bool budget_hit = false;
  while (!done && !budget_hit && d_sum < 1.0) {
    OBS_SPAN("gk.phase");
    // Every group's tree is computed up front from the phase-start length
    // function. Groups whose trees go stale while earlier groups route
    // flow are caught by Fleischer's re-pricing rule and recomputed.
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
      dijkstra(net, groups[gi].src, length, trees[gi]);
    result.dijkstra_runs += groups.size();

    for (std::size_t gi = 0; gi < groups.size() && !done && !budget_hit; ++gi) {
      const SourceGroup& grp = groups[gi];
      Tree& tree = trees[gi];
      std::vector<double> dist_at_compute = tree.dist;

      for (std::size_t ti = 0; ti < grp.targets.size() && !done && !budget_hit; ++ti) {
        auto [target, demand] = grp.targets[ti];
        if (tree.dist[target] == kInf)
          throw std::invalid_argument("max_concurrent_flow: commodity disconnected");
        double need = demand;
        while (need > 0.0 && !done && !budget_hit) {
          // Walk the tree path and re-price it under current lengths.
          path.clear();
          double cur_len = 0.0;
          double bottleneck = kInf;
          for (NodeId v = target; v != grp.src;) {
            std::uint32_t a = tree.parent_arc[v];
            path.push_back(a);
            cur_len += length[a];
            bottleneck = std::min(bottleneck, net.cap[a]);
            v = arc_tail(g, a);
          }
          if (cur_len > (1.0 + eps) * dist_at_compute[target]) {
            // Stale tree (Fleischer's rule): recompute and retry.
            c_gk_stale.inc();
            dijkstra(net, grp.src, length, tree);
            ++result.dijkstra_runs;
            dist_at_compute = tree.dist;
            continue;
          }
          double f = std::min(need, bottleneck);
          for (std::uint32_t a : path) {
            double old_len = length[a];
            flow[a] += f;
            length[a] = old_len * (1.0 + eps * f / net.cap[a]);
            d_sum += (length[a] - old_len) * net.cap[a];
          }
          routed[gi][ti] += f;
          need -= f;
          ++result.augmentations;
          if (d_sum >= 1.0) done = true;
          if (max_aug != 0 && result.augmentations >= max_aug && !done) {
            budget_hit = true;
            c_gk_budget_stops.inc();
          }
        }
      }
    }
    ++result.phases;
    h_gk_dsum.observe(d_sum);
  }
  c_gk_phases.add(result.phases);
  // `done` is only ever set by the D(l) >= 1 termination test, so leaving
  // the loop without it means max_augmentations cut the run short.
  result.truncated = !done;

  // Primal bound: rescale by worst congestion.
  double congestion = 0.0;
  for (std::size_t a = 0; a < m; ++a)
    congestion = std::max(congestion, flow[a] / net.cap[a]);
  result.max_congestion = congestion;
  double min_ratio = kInf;
  for (std::size_t gi = 0; gi < groups.size(); ++gi)
    for (std::size_t ti = 0; ti < groups[gi].targets.size(); ++ti)
      min_ratio = std::min(min_ratio, routed[gi][ti] / groups[gi].targets[ti].second);
  result.lambda_lower = congestion > 0.0 ? min_ratio / congestion : 0.0;

  result.arc_flow = std::move(flow);
  if (congestion > 0.0)
    for (double& f : result.arc_flow) f /= congestion;

  // Per-input-commodity routed totals under the same rescaling, for
  // solver certificates (check::certify), via the same slot mapping.
  result.commodity_routed.assign(commodities.size(), 0.0);
  for (std::size_t i = 0; i < commodities.size(); ++i) {
    const auto& [gi, ti] = slot_of[i];
    result.commodity_routed[i] = congestion > 0.0 ? routed[gi][ti] / congestion : 0.0;
  }

  // Dual bound under the final lengths: lambda* <= D(l) / alpha(l), one
  // Dijkstra per source group. Each group's part is summed on its own
  // before it joins alpha, which fixes the floating-point order.
  result.lambda_upper = kInf;
  if (options.compute_upper_bound) {
    OBS_SPAN("gk.dual_bound");
    double alpha = 0.0;
    Tree local;
    for (const SourceGroup& grp : groups) {
      dijkstra(net, grp.src, length, local);
      double part = 0.0;
      for (auto [target, demand] : grp.targets) part += demand * local.dist[target];
      alpha += part;
    }
    result.dijkstra_runs += groups.size();
    if (alpha > 0.0) result.lambda_upper = d_sum / alpha;
  }
  c_gk_augmentations.add(result.augmentations);
  c_gk_dijkstras.add(result.dijkstra_runs);
  g_gk_lambda_lower.set(result.lambda_lower);
  if (result.lambda_upper != kInf) g_gk_lambda_upper.set(result.lambda_upper);
  return result;
}

}  // namespace

}  // namespace flattree::mcf
