#include "check/differential.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "mcf/lp_exact.hpp"
#include "util/rng.hpp"

namespace flattree::check {

namespace {

graph::Graph random_multigraph(const DifferentialSpec& spec, util::Rng& rng) {
  graph::Graph g;
  g.add_nodes(spec.nodes);
  auto cap = [&] { return spec.cap_lo + (spec.cap_hi - spec.cap_lo) * rng.uniform(); };
  std::unordered_set<std::uint64_t> used;
  auto key = [](graph::NodeId a, graph::NodeId b) {
    auto [lo, hi] = std::minmax(a, b);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  };
  // Random spanning tree keeps every instance connected.
  for (graph::NodeId v = 1; v < spec.nodes; ++v) {
    graph::NodeId u = static_cast<graph::NodeId>(rng.below(v));
    used.insert(key(u, v));
    g.add_link(u, v, cap());
  }
  for (std::size_t i = 0; i < spec.extra_links; ++i) {
    graph::NodeId a = static_cast<graph::NodeId>(rng.below(spec.nodes));
    graph::NodeId b = static_cast<graph::NodeId>(rng.below(spec.nodes));
    if (a == b) continue;
    if (!spec.parallel_links && !used.insert(key(a, b)).second) continue;
    g.add_link(a, b, cap());
  }
  return g;
}

std::vector<mcf::Commodity> random_commodities(const DifferentialSpec& spec,
                                               util::Rng& rng) {
  std::vector<mcf::Commodity> cs;
  std::unordered_set<std::uint64_t> used;
  std::size_t attempts = 0;
  while (cs.size() < spec.commodities && attempts++ < spec.commodities * 16) {
    graph::NodeId a = static_cast<graph::NodeId>(rng.below(spec.nodes));
    graph::NodeId b = static_cast<graph::NodeId>(rng.below(spec.nodes));
    if (a == b) continue;
    if (!used.insert((static_cast<std::uint64_t>(a) << 32) | b).second) continue;
    cs.push_back({a, b, 0.5 + rng.uniform() * 2.0});
  }
  return cs;
}

}  // namespace

DifferentialOutcome run_differential(const DifferentialSpec& spec) {
  count_run();
  DifferentialOutcome out;
  util::Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 1);
  out.graph = random_multigraph(spec, rng);
  out.commodities = random_commodities(spec, rng);
  if (out.commodities.empty()) {
    out.report.add("diff.exact_unsolved", "no commodities drawn (nodes too few?)");
    return out;
  }

  auto exact = mcf::max_concurrent_flow_exact(out.graph, out.commodities);
  out.report.note_check();
  if (!exact.solved) {
    out.report.add("diff.exact_unsolved",
                   "exact LP did not solve (seed " + std::to_string(spec.seed) + ")");
    return out;
  }
  out.exact = exact.lambda;

  mcf::McfOptions opt;
  opt.epsilon = spec.epsilon;
  opt.compute_upper_bound = true;
  out.result = mcf::max_concurrent_flow(out.graph, out.commodities, opt);

  CertifyOptions copts;
  copts.epsilon = spec.epsilon;
  out.report.merge(certify(out.graph, out.commodities, out.result, copts));

  const double tol = 1e-6;
  out.report.note_check();
  if (out.result.lambda_lower > out.exact * (1.0 + tol)) {
    std::ostringstream os;
    os << "lambda_lower " << out.result.lambda_lower << " exceeds the exact optimum "
       << out.exact;
    out.report.add("diff.lower_exceeds_exact", os.str());
  }
  out.report.note_check();
  if (out.result.lambda_upper < out.exact * (1.0 - tol)) {
    std::ostringstream os;
    os << "lambda_upper " << out.result.lambda_upper << " below the exact optimum "
       << out.exact;
    out.report.add("diff.upper_below_exact", os.str());
  }
  out.report.note_check();
  double gap = spec.gap_factor > 0.0 ? spec.gap_factor : 1.0 + spec.epsilon;
  if (out.result.lambda_lower * gap < out.exact * (1.0 - tol)) {
    std::ostringstream os;
    os << "lambda_lower " << out.result.lambda_lower << " misses the exact optimum "
       << out.exact << " by more than the gap factor " << gap;
    out.report.add("diff.gap", os.str());
  }
  return out;
}

}  // namespace flattree::check
