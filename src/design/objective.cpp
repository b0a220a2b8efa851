#include "design/objective.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/zones.hpp"
#include "mcf/garg_koenemann.hpp"
#include "topo/apl.hpp"
#include "util/rng.hpp"

namespace flattree::design {
namespace {

using mcf::ServerDemand;
using topo::ServerId;
using util::Rng;

// Substream layout under mix.seed: component i draws every random choice
// (cluster placement, pattern endpoints, hot-cluster pick) from stream
// kComponentStream + i, so adding/reordering components never perturbs
// the others' demands.
constexpr std::uint64_t kComponentStream = 101;

std::vector<ServerId> all_servers(std::uint32_t total) {
  std::vector<ServerId> servers(total);
  for (std::uint32_t s = 0; s < total; ++s) servers[s] = s;
  return servers;
}

// Per-cluster all-reduce ring: member j sends one unit to member j+1
// (mod size) — the ring schedule of data-parallel training steps. The
// hot cluster's demands are scaled by `skew`.
void ml_training_demands(const std::vector<workload::Cluster>& clusters,
                         double weight, double skew, Rng& rng,
                         std::vector<ServerDemand>& out) {
  if (clusters.empty()) return;
  const std::size_t hot = rng.index(clusters.size());
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const auto& members = clusters[c].servers;
    if (members.size() < 2) continue;
    const double demand = c == hot ? weight * skew : weight;
    for (std::size_t j = 0; j < members.size(); ++j)
      out.push_back(ServerDemand{members[j],
                                 members[(j + 1) % members.size()], demand});
  }
}

// Random cyclic permutation over the eligible servers, unit demands.
void permutation_demands(std::vector<ServerId> eligible, double weight,
                         Rng& rng, std::vector<ServerDemand>& out) {
  if (eligible.size() < 2) return;
  rng.shuffle(eligible);
  for (std::size_t i = 0; i < eligible.size(); ++i)
    out.push_back(ServerDemand{eligible[i],
                               eligible[(i + 1) % eligible.size()], weight});
}

void component_demands(const Component& comp, std::size_t index,
                       const std::vector<ServerId>& zone,
                       const std::vector<ServerId>& everyone,
                       std::uint32_t servers_per_pod, std::uint64_t seed,
                       std::vector<ServerDemand>& out) {
  Rng rng = Rng::substream(seed, kComponentStream + index);
  if (everyone.size() < 2) return;

  // Permutation spans every server regardless of affinity (its internal
  // shuffle makes zone ordering irrelevant), so its size is trivially
  // layout-independent.
  if (comp.kind == PatternKind::Permutation) {
    permutation_demands(everyone, comp.weight, rng, out);
    return;
  }

  const auto size = static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(comp.cluster, 2, everyone.size()));
  const std::uint32_t want =
      comp.count != 0
          ? comp.count
          : std::max<std::uint32_t>(
                1, static_cast<std::uint32_t>(everyone.size()) / size);
  const std::size_t need =
      std::min<std::size_t>(std::size_t{size} * want, everyone.size());

  // Zone-priority selection: the affinity zone's servers first; when the
  // zone cannot hold every cluster, the remainder spills into a shuffled
  // draw from the rest of the fabric. The declared workload never
  // shrinks with the layout — only its placement moves.
  std::vector<ServerId> selection = zone;
  if (selection.size() < need) {
    std::vector<ServerId> rest;
    rest.reserve(everyone.size() - zone.size());
    std::size_t zi = 0;  // `zone` is an ascending subset of `everyone`
    for (ServerId s : everyone) {
      if (zi < zone.size() && zone[zi] == s) {
        ++zi;
      } else {
        rest.push_back(s);
      }
    }
    rng.shuffle(rest);
    selection.insert(selection.end(), rest.begin(),
                     rest.begin() +
                         static_cast<std::ptrdiff_t>(need - selection.size()));
  }

  auto clusters = workload::make_clusters_subset(selection, size, comp.placement,
                                                 servers_per_pod, rng);
  if (clusters.size() > want) clusters.resize(want);
  if (comp.kind == PatternKind::MlTraining) {
    ml_training_demands(clusters, comp.weight, comp.skew, rng, out);
    return;
  }
  const workload::Pattern pattern =
      comp.kind == PatternKind::Broadcast  ? workload::Pattern::Broadcast
      : comp.kind == PatternKind::Incast   ? workload::Pattern::Incast
                                           : workload::Pattern::AllToAll;
  const std::size_t first = out.size();
  auto demands = workload::cluster_traffic(clusters, pattern, rng);
  out.insert(out.end(), demands.begin(), demands.end());
  if (comp.weight != 1.0)
    for (std::size_t i = first; i < out.size(); ++i) out[i].demand *= comp.weight;
}

std::vector<ServerId> eligible_servers(const core::FlatTreeNetwork& net,
                                       const Candidate& candidate,
                                       Affinity affinity,
                                       const std::vector<ServerId>& everyone) {
  core::Mode mode = core::Mode::Clos;
  switch (affinity) {
    case Affinity::Global: mode = core::Mode::GlobalRandom; break;
    case Affinity::Local: mode = core::Mode::LocalRandom; break;
    case Affinity::Clos: mode = core::Mode::Clos; break;
    case Affinity::Any: return everyone;
  }
  return core::servers_in_pods(net, candidate.pods_in(mode));
}

}  // namespace

PatternKind parse_pattern_kind(const std::string& token) {
  if (token == "broadcast") return PatternKind::Broadcast;
  if (token == "incast") return PatternKind::Incast;
  if (token == "all-to-all") return PatternKind::AllToAll;
  if (token == "permutation") return PatternKind::Permutation;
  if (token == "ml-training") return PatternKind::MlTraining;
  throw std::runtime_error("design mix: unknown pattern kind '" + token + "'");
}

Affinity parse_affinity(const std::string& token) {
  if (token == "global") return Affinity::Global;
  if (token == "local") return Affinity::Local;
  if (token == "clos") return Affinity::Clos;
  if (token == "any") return Affinity::Any;
  throw std::runtime_error("design mix: unknown affinity '" + token + "'");
}

WorkloadMix WorkloadMix::defaults() {
  WorkloadMix mix;
  mix.components = {
      // Pod-spanning broadcast: wants the global-random zone's short
      // inter-pod paths (paper Figure 7).
      Component{PatternKind::Broadcast, Affinity::Global, 40, 1,
                workload::Placement::NoLocality, 1.0, 1.0},
      // Small all-to-all: wants a local-random zone (paper Figure 8).
      Component{PatternKind::AllToAll, Affinity::Local, 12, 3,
                workload::Placement::WeakLocality, 1.0, 1.0},
      // Fabric-wide skewed training rings: indifferent to zoning, loads
      // the whole plant so single-zone layouts cannot starve it.
      Component{PatternKind::MlTraining, Affinity::Any, 16, 2,
                workload::Placement::WeakLocality, 0.5, 4.0},
  };
  return mix;
}

std::vector<ServerDemand> mix_demands(const core::FlatTreeNetwork& net,
                                      const Candidate& candidate,
                                      const WorkloadMix& mix) {
  if (candidate.pods() != net.params().pods())
    throw std::invalid_argument("design mix: candidate pod count != plant");
  const auto everyone = all_servers(net.params().total_servers());
  std::vector<ServerDemand> out;
  for (std::size_t i = 0; i < mix.components.size(); ++i) {
    const Component& comp = mix.components[i];
    const auto eligible = eligible_servers(net, candidate, comp.affinity, everyone);
    component_demands(comp, i, eligible, everyone,
                      net.params().servers_per_pod(), mix.seed, out);
  }
  return out;
}

std::vector<ServerDemand> mix_demands_all(std::uint32_t total_servers,
                                          std::uint32_t servers_per_pod,
                                          const WorkloadMix& mix) {
  const auto everyone = all_servers(total_servers);
  std::vector<ServerDemand> out;
  for (std::size_t i = 0; i < mix.components.size(); ++i)
    component_demands(mix.components[i], i, everyone, everyone,
                      servers_per_pod, mix.seed, out);
  return out;
}

Score score_topology(const topo::Topology& t,
                     const std::vector<ServerDemand>& demands, double epsilon,
                     check::Report* report) {
  check::Report rep = check::validate(t);
  const graph::AplResult apl = topo::server_apl(t);
  const auto commodities = mcf::aggregate_to_switches(t, demands);
  mcf::McfOptions options;
  options.epsilon = epsilon;
  const mcf::McfResult result = mcf::max_concurrent_flow(t.graph(), commodities, options);
  check::CertifyOptions certify;
  certify.epsilon = epsilon;
  rep.merge(check::certify(t.graph(), commodities, result, certify));
  if (report != nullptr) report->merge(rep);
  return Score{result.lambda_lower, result.lambda_upper, apl.average,
               demands.size(), rep.ok()};
}

Score score_layout(const core::FlatTreeNetwork& net, const Candidate& candidate,
                   const WorkloadMix& mix) {
  const topo::Topology t = net.build(candidate.pod_modes());
  return score_topology(t, mix_demands(net, candidate, mix), mix.epsilon);
}

}  // namespace flattree::design
