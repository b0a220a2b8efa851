#include "mcf/garg_koenemann.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
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
obs::Counter c_gk_gap_stops("mcf.gk.gap_stops");
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
  std::vector<NodeId> tail;       ///< arc -> node it leaves
  std::vector<double> cap;        ///< arc capacity
  std::vector<std::uint32_t> offset;  ///< CSR: arcs leaving each node
  std::vector<std::uint32_t> arcs;    ///< CSR payload: arc ids

  explicit DirectedNet(const graph::Graph& g) {
    nodes = g.node_count();
    const auto& links = g.links();
    head.resize(links.size() * 2);
    tail.resize(links.size() * 2);
    cap.resize(links.size() * 2);
    offset.assign(nodes + 1, 0);
    for (std::size_t l = 0; l < links.size(); ++l) {
      head[2 * l] = tail[2 * l + 1] = links[l].b;
      head[2 * l + 1] = tail[2 * l] = links[l].a;
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

/// A shortest-path tree from one source. Only the nodes the run settled
/// (every requested target and the tree paths leading to them) carry
/// final values; the rest are tentative.
struct Tree {
  std::vector<double> dist;
  std::vector<std::uint32_t> parent_arc;  ///< arc entering each node
};

/// Dijkstra with storage reused across runs: the heap's vector and the
/// pending-target marks live as long as the solve.
class Dijkstra {
 public:
  explicit Dijkstra(std::size_t nodes) : mark_(nodes, 0) {}

  /// Grows `tree` from grp.src under `length` until every target
  /// grp.targets[first..] is settled. The heap is the binary heap of
  /// std::priority_queue (push_heap/pop_heap, same comparator), so ties
  /// pop in the same order and every settled distance and parent arc is
  /// the one a run to exhaustion would give.
  void run(const DirectedNet& net, const SourceGroup& grp, std::size_t first,
           const std::vector<double>& length, Tree& tree) {
    if (++stamp_ == 0) {  // wrapped: clear the old marks once
      std::fill(mark_.begin(), mark_.end(), 0u);
      stamp_ = 1;
    }
    std::size_t pending = 0;
    for (std::size_t ti = first; ti < grp.targets.size(); ++ti) {
      NodeId t = grp.targets[ti].first;
      if (mark_[t] != stamp_) {
        mark_[t] = stamp_;
        ++pending;
      }
    }
    tree.dist.assign(net.nodes, kInf);
    tree.parent_arc.assign(net.nodes, ~0u);
    heap_.clear();
    tree.dist[grp.src] = 0.0;
    push({0.0, grp.src});
    while (!heap_.empty() && pending > 0) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      auto [d, u] = heap_.back();
      heap_.pop_back();
      if (d > tree.dist[u]) continue;
      if (mark_[u] == stamp_ && --pending == 0) break;
      for (std::uint32_t idx = net.offset[u]; idx < net.offset[u + 1]; ++idx) {
        std::uint32_t a = net.arcs[idx];
        NodeId v = net.head[a];
        double nd = d + length[a];
        if (nd < tree.dist[v]) {
          tree.dist[v] = nd;
          tree.parent_arc[v] = a;
          push({nd, v});
        }
      }
    }
  }

 private:
  struct Entry {
    double d;
    NodeId v;
    bool operator>(const Entry& o) const { return d > o.d; }
  };

  void push(Entry e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> mark_;  ///< == stamp_ for a pending target
  std::uint32_t stamp_ = 0;
};

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

  // The best certified bracket of the run. Every phase start offers both
  // candidates; the best primal keeps a copy of its flow and routed
  // totals, the best dual a copy of its lengths (when the bound is
  // reported), so the result is the witness of whichever point won.
  struct Primal {
    double lower = 0.0;
    double congestion = 0.0;
  };
  auto primal = [&] {
    Primal p;
    for (std::size_t a = 0; a < m; ++a)
      p.congestion = std::max(p.congestion, flow[a] / net.cap[a]);
    double min_ratio = kInf;
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
      for (std::size_t ti = 0; ti < groups[gi].targets.size(); ++ti)
        min_ratio = std::min(min_ratio, routed[gi][ti] / groups[gi].targets[ti].second);
    p.lower = p.congestion > 0.0 ? min_ratio / p.congestion : 0.0;
    return p;
  };
  Primal best;
  std::vector<double> best_flow;
  std::vector<std::vector<double>> best_routed;
  double best_upper = kInf;
  std::vector<double> best_length;
  auto offer_dual = [&](double upper) {
    if (!(upper < best_upper)) return;
    best_upper = upper;
    if (options.compute_upper_bound) best_length = length;
  };
  Dijkstra dijkstra(net.nodes);
  std::vector<Tree> trees(groups.size());
  // Grows every group's tree under the current lengths and returns
  // alpha(l), so lambda* <= D(l) / alpha(l). Each group's part is summed
  // on its own before it joins alpha, which fixes the floating-point
  // order.
  auto grow_trees = [&] {
    double alpha = 0.0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      dijkstra.run(net, groups[gi], 0, length, trees[gi]);
      double part = 0.0;
      for (auto [target, demand] : groups[gi].targets) part += demand * trees[gi].dist[target];
      if (part == kInf)
        throw std::invalid_argument("max_concurrent_flow: commodity disconnected");
      alpha += part;
    }
    result.dijkstra_runs += groups.size();
    return alpha;
  };
  std::vector<std::uint32_t> path;  // arcs target<-...<-source (reverse order)

  bool done = false;
  bool gap_stop = false;
  // Augmentation budget (McfOptions::max_augmentations), checked inside
  // the augmentation loop; 0 disables it.
  const std::uint64_t max_aug = options.max_augmentations;
  bool budget_hit = false;
  while (!done && !budget_hit && d_sum < 1.0) {
    OBS_SPAN("gk.phase");
    // Every group's tree is computed up front from the phase-start length
    // function. Groups whose trees go stale while earlier groups route
    // flow are caught by Fleischer's re-pricing rule and recomputed. The
    // same trees price alpha(l), so the phase-start bracket is free.
    offer_dual(d_sum / grow_trees());
    Primal p = primal();
    if (p.lower > best.lower) {
      best = p;
      best_flow = flow;
      best_routed = routed;
    }
    // Converged: the bracket is eps-tight, which is stronger than the
    // (1 - 3 eps) promise of the D(l) >= 1 finish.
    if (best.lower * (1.0 + eps) >= best_upper) {
      gap_stop = true;
      c_gk_gap_stops.inc();
      break;
    }

    for (std::size_t gi = 0; gi < groups.size() && !done && !budget_hit; ++gi) {
      const SourceGroup& grp = groups[gi];
      Tree& tree = trees[gi];

      for (std::size_t ti = 0; ti < grp.targets.size() && !done && !budget_hit; ++ti) {
        auto [target, demand] = grp.targets[ti];
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
            v = net.tail[a];
          }
          if (cur_len > (1.0 + eps) * tree.dist[target]) {
            // Stale tree (Fleischer's rule): regrow it for the targets
            // still to route and retry.
            c_gk_stale.inc();
            dijkstra.run(net, grp, ti, length, tree);
            ++result.dijkstra_runs;
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
  // Only max_augmentations ends a run without converging.
  result.truncated = budget_hit;

  // The final flow competes with the phase starts and wins ties (after a
  // gap stop it is the phase-start flow just offered).
  Primal last = primal();
  if (last.lower >= best.lower) {
    best = last;
    best_flow = std::move(flow);
    best_routed = std::move(routed);
  }
  // The final dual sweep prices the final lengths; a gap stop priced
  // exactly these lengths already.
  if (options.compute_upper_bound && !gap_stop) {
    OBS_SPAN("gk.dual_bound");
    offer_dual(d_sum / grow_trees());
  }

  // Primal bound: the best flow rescaled by its worst congestion.
  result.max_congestion = best.congestion;
  result.lambda_lower = best.lower;
  result.arc_flow = std::move(best_flow);
  if (best.congestion > 0.0)
    for (double& f : result.arc_flow) f /= best.congestion;

  // Per-input-commodity routed totals under the same rescaling, for
  // solver certificates (check::certify), via the slot mapping.
  result.commodity_routed.assign(commodities.size(), 0.0);
  for (std::size_t i = 0; i < commodities.size(); ++i) {
    const auto& [gi, ti] = slot_of[i];
    result.commodity_routed[i] =
        best.congestion > 0.0 ? best_routed[gi][ti] / best.congestion : 0.0;
  }

  result.lambda_upper = kInf;
  if (options.compute_upper_bound) {
    result.lambda_upper = best_upper;
    result.dual_length = std::move(best_length);
  }
  c_gk_augmentations.add(result.augmentations);
  c_gk_dijkstras.add(result.dijkstra_runs);
  g_gk_lambda_lower.set(result.lambda_lower);
  if (result.lambda_upper != kInf) g_gk_lambda_upper.set(result.lambda_upper);
  return result;
}

}  // namespace

}  // namespace flattree::mcf
