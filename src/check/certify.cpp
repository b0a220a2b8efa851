#include "check/certify.hpp"

#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>

namespace flattree::check {

namespace {

// Comparison tolerances: relative, then absolute.
constexpr double kRelTol = 1e-7;
constexpr double kAbsTol = 1e-9;

/// Tolerance-aware x <= y.
bool leq(double x, double y) { return x <= y * (1.0 + kRelTol) + kAbsTol; }

/// Directed shortest-path distances from `src` under per-arc lengths
/// (arc 2l = link l a->b, 2l+1 = b->a; `out` lists each node's arcs). A
/// plain lazy-deletion Dijkstra, kept apart from the solver's own.
std::vector<double> arc_distances(const graph::Graph& g,
                                  const std::vector<std::vector<std::uint32_t>>& out,
                                  const std::vector<double>& length, graph::NodeId src) {
  std::vector<double> dist(g.node_count(), std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, graph::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[src] = 0.0;
  heap.push({0.0, src});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (std::uint32_t a : out[u]) {
      const graph::Link& link = g.link(a / 2);
      graph::NodeId v = a % 2 == 0 ? link.b : link.a;
      if (d + length[a] < dist[v]) {
        dist[v] = d + length[a];
        heap.push({dist[v], v});
      }
    }
  }
  return dist;
}

}  // namespace

Report certify(const graph::Graph& g, const std::vector<mcf::Commodity>& commodities,
               const mcf::McfResult& result, const CertifyOptions& options) {
  count_run();
  Report report;
  const std::size_t arcs = g.link_count() * 2;

  report.note_check();
  if (result.arc_flow.size() != arcs) {
    report.add("mcf.arc_flow_size",
               "arc_flow has " + std::to_string(result.arc_flow.size()) +
                   " entries, expected " + std::to_string(arcs));
    return report;  // nothing below is meaningful
  }
  report.note_check();
  if (result.commodity_routed.size() != commodities.size()) {
    report.add("mcf.routed_size",
               "commodity_routed has " + std::to_string(result.commodity_routed.size()) +
                   " entries for " + std::to_string(commodities.size()) + " commodities");
    return report;
  }

  // (1) Capacity feasibility of the rescaled arc flows. Arc 2l = link l
  // (a->b), arc 2l+1 = (b->a), each with the full link capacity.
  report.note_check();
  for (std::size_t a = 0; a < arcs; ++a) {
    double cap = g.link(static_cast<graph::LinkId>(a / 2)).capacity;
    if (leq(result.arc_flow[a], cap)) continue;
    std::ostringstream os;
    os << "arc " << a << " (link " << a / 2 << (a % 2 == 0 ? " forward" : " reverse")
       << ") carries " << result.arc_flow[a] << " over capacity " << cap;
    report.add("mcf.capacity", os.str());
  }

  // (2) Flow conservation: the divergence of arc_flow at every node must
  // match the net supply implied by the per-commodity routed totals. This
  // is the aggregate of per-commodity conservation — each commodity's
  // paths leave its source and enter its sink, so summed over commodities
  // the only nonzero divergences sit at commodity endpoints.
  report.note_check();
  std::vector<double> divergence(g.node_count(), 0.0);
  std::vector<double> gross(g.node_count(), 0.0);  // tolerance scale per node
  for (std::size_t a = 0; a < arcs; ++a) {
    const graph::Link& link = g.link(static_cast<graph::LinkId>(a / 2));
    graph::NodeId tail = a % 2 == 0 ? link.a : link.b;
    graph::NodeId head = a % 2 == 0 ? link.b : link.a;
    divergence[tail] += result.arc_flow[a];
    divergence[head] -= result.arc_flow[a];
    gross[tail] += result.arc_flow[a];
    gross[head] += result.arc_flow[a];
  }
  for (std::size_t i = 0; i < commodities.size(); ++i) {
    divergence[commodities[i].src] -= result.commodity_routed[i];
    divergence[commodities[i].dst] += result.commodity_routed[i];
    gross[commodities[i].src] += result.commodity_routed[i];
    gross[commodities[i].dst] += result.commodity_routed[i];
  }
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    double slack = kAbsTol + kRelTol * std::max(1.0, gross[v]);
    if (std::abs(divergence[v]) <= slack) continue;
    std::ostringstream os;
    os << "node " << v << " has net divergence " << divergence[v]
       << " beyond the routed supply (tolerance " << slack << ")";
    report.add("mcf.conservation", os.str());
  }

  // (3) Primal support: every commodity ships at least lambda_lower times
  // its demand — otherwise lambda_lower was not actually achieved.
  report.note_check();
  for (std::size_t i = 0; i < commodities.size(); ++i) {
    double required = result.lambda_lower * commodities[i].demand;
    double slack = kAbsTol + kRelTol * std::max(1.0, required);
    if (result.commodity_routed[i] >= required - slack) continue;
    std::ostringstream os;
    os << "commodity " << i << " (" << commodities[i].src << " -> " << commodities[i].dst
       << ") routed " << result.commodity_routed[i] << " < lambda_lower * demand = "
       << required;
    report.add("mcf.primal_support", os.str());
  }

  // (4) Bracket sanity. lambda_upper is +inf when the dual sweep was
  // skipped, which brackets trivially.
  report.note_check();
  if (!leq(result.lambda_lower, result.lambda_upper)) {
    std::ostringstream os;
    os << "lambda_lower " << result.lambda_lower << " exceeds lambda_upper "
       << result.lambda_upper;
    report.add("mcf.bracket", os.str());
  }

  // (5) FPTAS gap, converged runs only (truncated runs carry no promise).
  if (options.epsilon > 0.0 && options.epsilon < 1.0 / 3.0 && !result.truncated &&
      std::isfinite(result.lambda_upper)) {
    report.note_check();
    double floor = (1.0 - 3.0 * options.epsilon) * result.lambda_upper;
    if (!leq(floor, result.lambda_lower)) {
      std::ostringstream os;
      os << "lambda_lower " << result.lambda_lower << " below the (1 - 3*eps) FPTAS floor "
         << floor << " of lambda_upper " << result.lambda_upper << " (eps "
         << options.epsilon << ")";
      report.add("mcf.fptas_gap", os.str());
    }
  }

  // (6) Cut bound, exact-path results only (GK carries no cut). For any
  // node set S, lambda* <= cap(out of S) / (demand from S to the rest), so
  // lambda_upper must be at least that ratio. Recomputed in O(m).
  if (!result.cut_source_side.empty()) {
    report.note_check();
    const auto& side = result.cut_source_side;
    if (side.size() != g.node_count()) {
      report.add("mcf.cut_bound", "cut_source_side has " + std::to_string(side.size()) +
                                      " entries for " + std::to_string(g.node_count()) +
                                      " nodes");
      return report;
    }
    double cap = 0.0;
    for (const graph::Link& link : g.links())
      if ((side[link.a] != 0) != (side[link.b] != 0)) cap += link.capacity;
    double crossing = 0.0;
    for (const mcf::Commodity& c : commodities)
      if (side[c.src] != 0 && side[c.dst] == 0) crossing += c.demand;
    // An empty set, a full set and a set without a source all fail here.
    if (!(crossing > 0.0)) {
      report.add("mcf.cut_bound", "no commodity demand leaves the cut set");
    } else if (!leq(cap / crossing, result.lambda_upper)) {
      std::ostringstream os;
      os << "lambda_upper " << result.lambda_upper << " below the cut ratio "
         << cap / crossing << " (capacity " << cap << " over crossing demand " << crossing
         << ")";
      report.add("mcf.cut_bound", os.str());
    }
  }

  // (7) Dual bound, GK results only (the exact path carries a cut). For
  // any non-negative lengths l, lambda* <= D(l) / alpha(l) with D = sum of
  // cap * l and alpha = sum of demand * dist_l(src, dst), so lambda_upper
  // must be at least that ratio. A GK result that reports a finite upper
  // bound must carry its lengths; recomputed with one Dijkstra per
  // distinct source.
  const auto& len = result.dual_length;
  if (result.cut_source_side.empty() && !commodities.empty() &&
      (!len.empty() || std::isfinite(result.lambda_upper))) {
    report.note_check();
    if (len.size() != arcs) {
      report.add("mcf.dual_bound", "dual_length has " + std::to_string(len.size()) +
                                       " entries, expected " + std::to_string(arcs));
      return report;
    }
    double d_sum = 0.0;
    for (std::size_t a = 0; a < arcs; ++a) {
      if (!(len[a] >= 0.0) || !std::isfinite(len[a])) {
        std::ostringstream os;
        os << "arc " << a << " has length " << len[a] << ", not finite and non-negative";
        report.add("mcf.dual_bound", os.str());
        return report;
      }
      d_sum += g.link(static_cast<graph::LinkId>(a / 2)).capacity * len[a];
    }
    std::vector<std::vector<std::uint32_t>> out(g.node_count());
    for (graph::LinkId l = 0; l < g.link_count(); ++l) {
      out[g.link(l).a].push_back(2 * l);
      out[g.link(l).b].push_back(2 * l + 1);
    }
    double alpha = 0.0;
    for (const mcf::SourceGroup& grp : mcf::group_by_source(commodities)) {
      const std::vector<double> dist = arc_distances(g, out, len, grp.src);
      for (auto [dst, demand] : grp.targets) alpha += demand * dist[dst];
    }
    if (!(alpha > 0.0) || !std::isfinite(alpha)) {
      std::ostringstream os;
      os << "alpha(l) = " << alpha << " under dual_length prices no finite bound";
      report.add("mcf.dual_bound", os.str());
    } else if (!leq(d_sum / alpha, result.lambda_upper)) {
      std::ostringstream os;
      os << "lambda_upper " << result.lambda_upper << " below the dual ratio "
         << d_sum / alpha << " (D(l) " << d_sum << " over alpha(l) " << alpha << ")";
      report.add("mcf.dual_bound", os.str());
    }
  }
  return report;
}

Report certify_served(const graph::Graph& g,
                      const std::vector<mcf::Commodity>& commodities,
                      const mcf::McfResult& result, const CertifyOptions& options) {
  count_run();
  Report report;

  // Unreachable index list well-formed: strictly ascending, in range.
  report.note_check();
  bool indices_ok = true;
  for (std::size_t j = 0; j < result.unreachable.size(); ++j) {
    std::uint32_t idx = result.unreachable[j];
    if (idx >= commodities.size() || (j > 0 && idx <= result.unreachable[j - 1])) {
      std::ostringstream os;
      os << "unreachable[" << j << "] = " << idx << " is "
         << (idx >= commodities.size() ? "out of range" : "not strictly ascending");
      report.add("mcf.unreachable_index", os.str());
      indices_ok = false;
    }
  }
  if (!indices_ok) return report;  // the filtering below would be garbage

  report.note_check();
  if (result.commodity_routed.size() != commodities.size()) {
    report.add("mcf.routed_size",
               "commodity_routed has " + std::to_string(result.commodity_routed.size()) +
                   " entries for " + std::to_string(commodities.size()) + " commodities");
    return report;
  }

  // Excluded commodities must carry exactly zero flow — anything else
  // means the solver routed through a cut it declared impassable.
  report.note_check();
  std::vector<char> excluded(commodities.size(), 0);
  for (std::uint32_t idx : result.unreachable) {
    excluded[idx] = 1;
    if (result.commodity_routed[idx] != 0.0) {
      std::ostringstream os;
      os << "unreachable commodity " << idx << " (" << commodities[idx].src << " -> "
         << commodities[idx].dst << ") routed " << result.commodity_routed[idx]
         << ", expected exactly 0";
      report.add("mcf.unreachable_routed", os.str());
    }
  }

  // served_fraction must equal the demand-weighted reachable share.
  report.note_check();
  double total_demand = 0.0, reachable_demand = 0.0;
  for (std::size_t i = 0; i < commodities.size(); ++i) {
    total_demand += commodities[i].demand;
    if (!excluded[i]) reachable_demand += commodities[i].demand;
  }
  double expected = total_demand > 0.0 ? reachable_demand / total_demand : 0.0;
  double slack = kAbsTol + kRelTol;
  if (std::abs(result.served_fraction - expected) > slack) {
    std::ostringstream os;
    os << "served_fraction " << result.served_fraction
       << " != demand-weighted reachable share " << expected;
    report.add("mcf.served_fraction", os.str());
  }

  // Full battery on the reachable sub-instance. With nothing excluded this
  // is certify() verbatim; with everything excluded it certifies the
  // degenerate zero solve (zero arc flows, empty commodity set).
  std::vector<mcf::Commodity> reachable;
  mcf::McfResult sub = result;
  sub.commodity_routed.clear();
  sub.unreachable.clear();
  sub.served_fraction = 1.0;
  for (std::size_t i = 0; i < commodities.size(); ++i) {
    if (excluded[i]) continue;
    reachable.push_back(commodities[i]);
    sub.commodity_routed.push_back(result.commodity_routed[i]);
  }
  report.merge(certify(g, reachable, sub, options));
  return report;
}

}  // namespace flattree::check
