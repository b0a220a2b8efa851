#include "inc/apl.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/parallel_for.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::inc {

namespace {

// Same metric names as the cold path (graph/metrics.cpp, topo/apl.cpp) so
// manifests stay comparable across modes; the registry dedupes by name.
obs::Counter c_apl_runs("graph.apl.runs");
obs::Counter c_apl_sources("graph.apl.sources_visited");
obs::Counter c_apl_pairs("graph.apl.pairs");
obs::Counter c_topo_apl_runs("topo.apl.runs");

/// Integer partial of the APL total: exact under graph::require_apl_sum_fits,
/// so any combine order gives the cold path's bits.
struct AplPartial {
  std::uint64_t total = 0;
  std::uint64_t pairs = 0;
  std::uint32_t max_dist = 0;

  AplPartial& operator+=(const AplPartial& o) {
    total += o.total;
    pairs += o.pairs;
    max_dist = std::max(max_dist, o.max_dist);
    return *this;
  }
};

}  // namespace

graph::AplResult weighted_apl(DynamicApsp& engine,
                              const std::vector<std::uint32_t>& weight,
                              std::uint32_t offset, std::uint32_t same_node_dist) {
  const graph::Graph& g = engine.graph();
  if (weight.size() != g.node_count())
    throw std::invalid_argument("weighted_apl: weight size mismatch");
  graph::require_apl_sum_fits(weight, offset, same_node_dist);

  OBS_SPAN("graph.apl");
  const std::size_t n = g.node_count();
  // Materialize every weighted source before the read-only parallel region
  // below; the bulk fill runs 64-wide batched BFS internally.
  std::vector<graph::NodeId> needed;
  needed.reserve(n);
  for (std::size_t s = 0; s < n; ++s)
    if (weight[s] != 0) needed.push_back(static_cast<graph::NodeId>(s));
  engine.materialize(needed);

  const DynamicApsp& ro = engine;
  AplPartial sum = exec::parallel_reduce(
      n, /*grain=*/1, AplPartial{},
      [&](std::size_t begin, std::size_t end, std::size_t) {
        AplPartial part;
        for (std::size_t s = begin; s < end; ++s) {
          graph::NodeId u = static_cast<graph::NodeId>(s);
          if (weight[u] == 0) continue;
          c_apl_sources.inc();
          std::uint64_t wu = weight[u];
          if (wu >= 2) {
            std::uint64_t p = wu * (wu - 1) / 2;
            part.total += p * same_node_dist;
            part.pairs += p;
            part.max_dist = std::max(part.max_dist, same_node_dist);
          }
          const std::vector<std::uint32_t>& dist = ro.cached_distances(u);
          for (graph::NodeId v = u + 1; v < g.node_count(); ++v) {
            if (weight[v] == 0) continue;
            if (dist[v] == graph::kUnreachable)
              throw std::runtime_error("weighted_apl: weighted pair disconnected");
            std::uint64_t p = wu * weight[v];
            std::uint32_t d = dist[v] + offset;
            part.total += p * d;
            part.pairs += p;
            part.max_dist = std::max(part.max_dist, d);
          }
        }
        return part;
      },
      [](AplPartial acc, AplPartial part) {
        acc += part;
        return acc;
      });

  graph::AplResult r;
  r.pairs = sum.pairs;
  r.max_dist = sum.max_dist;
  r.average = sum.pairs ? static_cast<double>(static_cast<long double>(sum.total) /
                                              static_cast<long double>(sum.pairs))
                        : 0.0;
  c_apl_runs.inc();
  c_apl_pairs.add(sum.pairs);
  return r;
}

graph::AplResult server_apl(DynamicApsp& engine, const topo::Topology& topo) {
  OBS_SPAN("topo.apl.server_apl");
  c_topo_apl_runs.inc();
  return weighted_apl(engine, topo.servers_per_switch(), /*offset=*/2,
                      /*same_node_dist=*/2);
}

graph::AplResult server_apl_subset(DynamicApsp& engine, const topo::Topology& topo,
                                   const std::vector<topo::ServerId>& subset) {
  std::vector<std::uint32_t> weight(topo.switch_count(), 0);
  for (topo::ServerId s : subset) ++weight[topo.host(s)];
  return weighted_apl(engine, weight, /*offset=*/2, /*same_node_dist=*/2);
}

}  // namespace flattree::inc
