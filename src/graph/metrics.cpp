#include "graph/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "exec/parallel_for.hpp"
#include "graph/multi_bfs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flattree::graph {

namespace {

obs::Counter c_apl_runs("graph.apl.runs");
obs::Counter c_apl_sources("graph.apl.sources_visited");
obs::Counter c_apl_pairs("graph.apl.pairs");

/// Batch sums folded over the pool; integers, so the fold order is free.
LevelSums add_sums(LevelSums acc, const LevelSums& b) {
  acc.weighted_hops += b.weighted_hops;
  acc.target_hits += b.target_hits;
  acc.depth = std::max(acc.depth, b.depth);
  return acc;
}

/// Runs every source in 64-wide counting batches over the pool and folds
/// the per-batch sums.
LevelSums sum_over_sources(const Graph& g, const std::vector<NodeId>& sources,
                           const std::vector<std::uint32_t>& weight) {
  MultiBfsPool pool(g);
  return exec::parallel_reduce(
      sources.size(), kBfsBatchWidth, LevelSums{},
      [&](std::size_t begin, std::size_t end, std::size_t) {
        MultiBfsLease engine(pool);
        return engine->run_counting(sources.data() + begin, end - begin, weight);
      },
      add_sums);
}

}  // namespace

void require_apl_sum_fits(const std::vector<std::uint32_t>& weight, std::uint32_t offset,
                          std::uint32_t same_node_dist) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t n = weight.size();
  std::uint64_t sum_w = 0;
  for (std::uint32_t w : weight) sum_w += w;  // n < 2^32 nodes: no wrap
  const std::uint64_t reach =
      std::max<std::uint64_t>({1, n == 0 ? 0 : n - 1 + offset, same_node_dist});
  if ((sum_w != 0 && sum_w > kMax / sum_w) || sum_w * sum_w > kMax / reach)
    throw std::overflow_error("weighted_apl: hop total may exceed 64 bits");
}

/// The counting BFS sums w[u] * w[v] * d(u,v) over ordered pairs of
/// distinct weighted nodes; halving that and adding the offset and
/// same-node terms in closed form gives the unordered total.
AplResult weighted_apl(const Graph& g, const std::vector<std::uint32_t>& weight,
                       std::uint32_t offset, std::uint32_t same_node_dist) {
  if (weight.size() != g.node_count())
    throw std::invalid_argument("weighted_apl: weight size mismatch");

  OBS_SPAN("graph.apl");
  require_apl_sum_fits(weight, offset, same_node_dist);

  std::vector<NodeId> sources;
  std::uint64_t sum_w = 0, sum_w2 = 0, same_pairs = 0;
  for (NodeId v = 0; v < weight.size(); ++v) {
    const std::uint64_t w = weight[v];
    if (w == 0) continue;
    sources.push_back(v);
    sum_w += w;
    sum_w2 += w * w;
    same_pairs += w * (w - 1) / 2;
  }
  c_apl_sources.add(sources.size());

  const LevelSums sums = sum_over_sources(g, sources, weight);
  // Every weighted node must have reached every weighted node.
  if (sums.target_hits != sources.size() * sources.size())
    throw std::runtime_error("weighted_apl: weighted pair disconnected");

  const std::uint64_t cross_pairs = (sum_w * sum_w - sum_w2) / 2;
  const std::uint64_t total =
      sums.weighted_hops / 2 + cross_pairs * offset + same_pairs * same_node_dist;
  AplResult r;
  r.pairs = cross_pairs + same_pairs;
  if (cross_pairs != 0) r.max_dist = sums.depth + offset;
  if (same_pairs != 0) r.max_dist = std::max(r.max_dist, same_node_dist);
  r.average = r.pairs ? static_cast<double>(static_cast<long double>(total) /
                                            static_cast<long double>(r.pairs))
                      : 0.0;
  c_apl_runs.inc();
  c_apl_pairs.add(r.pairs);
  return r;
}

}  // namespace flattree::graph
