#include "fault/degrade.hpp"

#include <numeric>

#include "check/certify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/apl.hpp"

namespace flattree::fault {

namespace {

obs::Counter c_degrades("fault.degrade.rebuilds");

}  // namespace

bool link_dead(const FaultState& state, NodeId a, NodeId b) {
  return state.switch_down(a) || state.switch_down(b) || state.pair_down(a, b);
}

DegradeResult degrade(const topo::Topology& base, const FaultState& state) {
  OBS_SPAN("fault.degrade");
  c_degrades.inc();
  DegradeResult out;
  for (NodeId v = 0; v < base.switch_count(); ++v) {
    const topo::SwitchInfo& info = base.info(v);
    out.topo.add_switch(info.kind, info.pod, info.index, info.ports);
  }
  std::vector<std::uint32_t> degree(base.switch_count(), 0);
  const graph::Graph& g = base.graph();
  for (graph::LinkId l = 0; l < g.link_count(); ++l) {
    const graph::Link& link = g.link(l);
    if (link_dead(state, link.a, link.b)) {
      ++out.dropped_links;
      continue;
    }
    out.topo.add_link(link.a, link.b, base.link_info(l).origin, link.capacity);
    ++degree[link.a];
    ++degree[link.b];
  }
  for (ServerId s = 0; s < base.server_count(); ++s) {
    NodeId host = base.host(s);
    out.topo.add_server(host);
    if (state.switch_down(host) || degree[host] == 0) out.stranded.push_back(s);
  }
  return out;
}

std::vector<ServerId> largest_alive_component(const topo::Topology& t,
                                              const std::vector<char>& stranded) {
  std::vector<NodeId> parent(t.switch_count());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](NodeId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (const graph::Link& link : t.graph().links()) {
    NodeId ra = find(link.a), rb = find(link.b);
    if (ra != rb) parent[ra < rb ? rb : ra] = ra < rb ? ra : rb;
  }
  std::vector<std::size_t> weight(t.switch_count(), 0);
  for (ServerId s = 0; s < t.server_count(); ++s)
    if (!stranded[s]) ++weight[find(t.host(s))];
  NodeId best = 0;
  for (NodeId v = 1; v < t.switch_count(); ++v)
    if (weight[v] > weight[best]) best = v;
  std::vector<ServerId> subset;
  for (ServerId s = 0; s < t.server_count(); ++s)
    if (!stranded[s] && find(t.host(s)) == best) subset.push_back(s);
  return subset;
}

Assessment assess(const topo::Topology& t, const std::vector<ServerId>& stranded,
                  const std::vector<mcf::ServerDemand>& demands, double epsilon,
                  std::uint64_t max_augmentations) {
  std::vector<char> down(t.server_count(), 0);
  for (ServerId s : stranded) down[s] = 1;
  Assessment out;
  const std::vector<ServerId> subset = largest_alive_component(t, down);
  out.alive = subset.size();
  if (subset.size() >= 2) out.apl = topo::server_apl_subset(t, subset).average;
  if (demands.empty()) return out;

  std::vector<mcf::ServerDemand> alive;
  double total_demand = 0.0, alive_demand = 0.0;
  for (const mcf::ServerDemand& d : demands) {
    total_demand += d.demand;
    if (down[d.src] || down[d.dst]) continue;
    alive.push_back(d);
    alive_demand += d.demand;
  }
  const double alive_frac = total_demand > 0.0 ? alive_demand / total_demand : 1.0;
  const std::vector<mcf::Commodity> commodities = mcf::aggregate_to_switches(t, alive);
  if (commodities.empty()) {
    out.served = alive.empty() ? 0.0 : alive_frac;
    return out;
  }

  mcf::McfOptions opt;
  opt.epsilon = epsilon;
  opt.allow_unreachable = true;
  opt.compute_upper_bound = true;
  opt.max_augmentations = max_augmentations;
  out.result = mcf::max_concurrent_flow(t.graph(), commodities, opt);
  check::CertifyOptions copt;
  copt.epsilon = epsilon;
  out.certificate = check::certify_served(t.graph(), commodities, out.result, copt);
  out.solved = true;
  out.served = alive_frac * out.result.served_fraction;
  return out;
}

}  // namespace flattree::fault
