// Bit-parallel batched BFS (graph::MultiSourceBfs) equivalence battery:
// the engine must reproduce the scalar kernels bit for bit — distance rows
// on random (including disconnected) graphs and, through the row-free
// counting mode, the weighted APL against the scalar oracle
// (apl_oracle.hpp) — at any thread count, with deterministic operation
// counters. Negative controls prove the sampled
// certification hook actually catches corrupted rows.

#include "graph/multi_bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "apl_oracle.hpp"

#include "check/distances.hpp"
#include "exec/parallel_for.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "obs/metrics.hpp"
#include "topo/apl.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace flattree::graph {
namespace {

/// Random multigraph: n nodes, m links sampled uniformly (self-loop-free,
/// parallels allowed — the CSR supports them). Sparse draws leave isolated
/// nodes, covering the disconnected case.
Graph random_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  Graph g;
  g.add_nodes(n);
  for (std::size_t i = 0; i < m; ++i) {
    NodeId a = static_cast<NodeId>(rng.below(n));
    NodeId b = static_cast<NodeId>(rng.below(n));
    if (a == b) b = static_cast<NodeId>((b + 1) % n);
    g.add_link(a, b);
  }
  return g;
}

/// Batched-BFS work billed to the obs counters (graph.bitbfs.*,
/// graph.bfs.*) while `body` runs.
struct BfsWork {
  std::uint64_t batches = 0;
  std::uint64_t runs = 0;             ///< sources traversed
  std::uint64_t nodes_visited = 0;    ///< (source, node) pairs reached
  std::uint64_t node_expansions = 0;
  std::uint64_t words_touched = 0;
  obs::HistogramSnapshot reach;       ///< graph.bfs.visited_per_source
};

template <typename Body>
BfsWork bfs_work(Body&& body) {
  const bool before = obs::enabled();
  obs::set_enabled(true);
  obs::reset_metrics();
  body();
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  obs::set_enabled(before);
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return v;
    return 0;
  };
  BfsWork work{counter("graph.bitbfs.batches"), counter("graph.bfs.runs"),
               counter("graph.bfs.nodes_visited"),
               counter("graph.bitbfs.node_expansions"),
               counter("graph.bitbfs.words_touched"), {}};
  for (const obs::HistogramSnapshot& h : snap.histograms)
    if (h.name == "graph.bfs.visited_per_source") work.reach = h;
  return work;
}

std::size_t reached(std::span<const std::uint32_t> row) {
  return static_cast<std::size_t>(
      std::count_if(row.begin(), row.end(), [](std::uint32_t d) { return d != kUnreachable; }));
}

void expect_bitwise_equal(const AplResult& batched, const AplResult& scalar,
                          const std::string& what) {
  EXPECT_EQ(batched.average, scalar.average) << what;  // bitwise, not approximate
  EXPECT_EQ(batched.pairs, scalar.pairs) << what;
  EXPECT_EQ(batched.max_dist, scalar.max_dist) << what;
}

/// Weight regimes for the counting path: equal weights (with zeros) keep
/// every batch on the popcount branch; mixed weights take the walk.
enum class Weights { Equal, Mixed };

std::vector<std::uint32_t> draw_weights(std::size_t n, Weights kind, util::Rng& rng) {
  std::vector<std::uint32_t> weight(n, 0);
  for (std::size_t v = 0; v < n; ++v)
    weight[v] = kind == Weights::Equal ? (rng.below(5) == 0 ? 0u : 3u)
                                       : static_cast<std::uint32_t>(rng.below(4));
  return weight;
}

TEST(MultiBfs, MatchesScalarOnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    // m < n leaves isolated nodes and multiple components.
    for (std::size_t m : {std::size_t{40}, std::size_t{90}, std::size_t{400}}) {
      Graph g = random_graph(100, m, seed);
      std::vector<NodeId> sources(g.node_count());
      for (NodeId v = 0; v < g.node_count(); ++v) sources[v] = v;
      MultiSourceBfs engine(g);
      for (std::size_t begin = 0; begin < sources.size(); begin += kBfsBatchWidth) {
        std::size_t count = std::min(kBfsBatchWidth, sources.size() - begin);
        engine.run(sources.data() + begin, count);
        for (std::size_t i = 0; i < count; ++i) {
          auto scalar = bfs_distances(g, sources[begin + i]);
          auto row = engine.distances(i);
          ASSERT_TRUE(std::equal(scalar.begin(), scalar.end(), row.begin(), row.end()))
              << "seed=" << seed << " m=" << m << " source=" << sources[begin + i];
        }
      }
    }
  }
}

TEST(MultiBfs, RejectsBadBatches) {
  Graph g = random_graph(10, 20, 1);
  MultiSourceBfs engine(g);
  NodeId source = 0;
  EXPECT_THROW(engine.run(&source, 0), std::invalid_argument);
  NodeId out_of_range = 10;
  EXPECT_THROW(engine.run(&out_of_range, 1), std::invalid_argument);
  std::vector<std::uint32_t> weight(10, 1);
  EXPECT_THROW(engine.run_counting(&source, 0, weight), std::invalid_argument);
  EXPECT_THROW(engine.run_counting(&out_of_range, 1, weight), std::invalid_argument);
  std::vector<std::uint32_t> short_weight(5, 1);
  EXPECT_THROW(engine.run_counting(&source, 1, short_weight), std::invalid_argument);
}

TEST(MultiBfs, ReachedCountsAndStats) {
  Graph g;
  g.add_nodes(6);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(3, 4);  // node 5 isolated
  MultiSourceBfs engine(g);
  std::vector<NodeId> sources{0, 3, 5};
  const BfsWork work = bfs_work([&] { engine.run(sources.data(), sources.size()); });
  EXPECT_EQ(reached(engine.distances(0)), 3u);
  EXPECT_EQ(reached(engine.distances(1)), 2u);
  EXPECT_EQ(reached(engine.distances(2)), 1u);
  EXPECT_EQ(work.batches, 1u);
  EXPECT_EQ(work.runs, 3u);
  EXPECT_EQ(work.nodes_visited, 6u);  // one per (source, reached node)
  EXPECT_GT(work.words_touched, 0u);
  EXPECT_GT(work.node_expansions, 0u);
  // Row mode feeds one reach sample per source.
  EXPECT_EQ(work.reach.count, 3u);
  EXPECT_EQ(work.reach.sum, 6.0);
  EXPECT_EQ(work.reach.min, 1.0);
  EXPECT_EQ(work.reach.max, 3.0);
  // Counting mode with every node a target: the same reach, and the
  // deepest level is node 2 seen from source 0.
  const std::vector<std::uint32_t> weight(g.node_count(), 1);
  const LevelSums sums = engine.run_counting(sources.data(), sources.size(), weight);
  EXPECT_EQ(sums.target_hits, 6u);
  EXPECT_EQ(sums.depth, 2u);
  EXPECT_EQ(sums.weighted_hops, 4u);  // 0->1, 0->2, 3->4: 1 + 2 + 1
  EXPECT_THROW(engine.distances(0), std::out_of_range);  // no rows left behind
}

TEST(MultiBfs, CountingRunMatchesRowRun) {
  // The counting mode's sums, recomputed from the row mode's distances,
  // for full and partial batches and both weight regimes; the operation
  // counters of the two modes agree too. Sources are
  // the weighted nodes, as in weighted_apl, so equal weights take the
  // popcount branch.
  util::Rng rng(17);
  for (std::size_t m : {std::size_t{60}, std::size_t{300}}) {
    Graph g = random_graph(100, m, 71 + m);
    for (Weights kind : {Weights::Equal, Weights::Mixed}) {
      std::vector<std::uint32_t> weight = draw_weights(g.node_count(), kind, rng);
      std::vector<NodeId> sources;
      for (NodeId v = 0; v < g.node_count(); ++v)
        if (weight[v] != 0) sources.push_back(v);
      MultiSourceBfs engine(g);
      for (std::size_t begin = 0; begin < sources.size(); begin += kBfsBatchWidth) {
        const std::size_t count = std::min(kBfsBatchWidth, sources.size() - begin);
        const BfsWork row_work =
            bfs_work([&] { engine.run(sources.data() + begin, count); });
        LevelSums expect;
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint64_t ws = weight[sources[begin + i]];
          auto row = engine.distances(i);
          for (NodeId v = 0; v < g.node_count(); ++v) {
            if (weight[v] == 0 || row[v] == kUnreachable) continue;
            ++expect.target_hits;
            expect.weighted_hops += ws * weight[v] * row[v];
            expect.depth = std::max(expect.depth, row[v]);
          }
        }
        LevelSums got;
        const BfsWork count_work = bfs_work(
            [&] { got = engine.run_counting(sources.data() + begin, count, weight); });
        const std::string what = "m=" + std::to_string(m) + " batch@" + std::to_string(begin);
        EXPECT_EQ(got.weighted_hops, expect.weighted_hops) << what;
        EXPECT_EQ(got.target_hits, expect.target_hits) << what;
        EXPECT_EQ(got.depth, expect.depth) << what;
        EXPECT_THROW(engine.distances(0), std::out_of_range) << what;  // no rows left behind
        EXPECT_EQ(count_work.batches, 1u) << what;
        EXPECT_EQ(count_work.runs, row_work.runs) << what;
        EXPECT_EQ(count_work.words_touched, row_work.words_touched) << what;
        EXPECT_EQ(count_work.node_expansions, row_work.node_expansions) << what;
        EXPECT_EQ(count_work.nodes_visited, row_work.nodes_visited) << what;
        EXPECT_EQ(row_work.reach.count, count) << what;
        EXPECT_EQ(row_work.reach.sum, static_cast<double>(row_work.nodes_visited)) << what;
        EXPECT_EQ(count_work.reach.count, 0u) << what;  // only row mode knows reach
      }
    }
  }
}

TEST(MultiBfs, WeightedAplBitwiseEqualsScalar) {
  // 90 and 150 weighted-or-not nodes: the last batch is partial.
  util::Rng rng(13);
  for (std::size_t n : {std::size_t{90}, std::size_t{150}}) {
    for (std::uint64_t seed : {21ull, 22ull}) {
      Graph g = random_graph(n, n * 6, seed);  // dense draw: connected whp
      ASSERT_TRUE(is_connected(g));
      for (Weights kind : {Weights::Equal, Weights::Mixed}) {
        std::vector<std::uint32_t> weight = draw_weights(n, kind, rng);
        const std::string what = "n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
                                 (kind == Weights::Equal ? " equal" : " mixed");
        expect_bitwise_equal(weighted_apl(g, weight, 2, 2),
                             oracle::weighted_apl_scalar(g, weight, 2, 2), what);
        expect_bitwise_equal(weighted_apl(g, weight, 0, 5),
                             oracle::weighted_apl_scalar(g, weight, 0, 5), what + " offset0");
      }
    }
  }
}

TEST(MultiBfs, WeightedAplThrowsOnDisconnectedWeightedPair) {
  // Two dense halves joined by nothing: one weighted node on the far side
  // disconnects it from every source batch (70 sources: two batches).
  Graph g;
  g.add_nodes(140);
  util::Rng rng(43);
  for (int i = 0; i < 600; ++i) {
    const NodeId half = i % 2 == 0 ? 0 : 70;
    NodeId a = half + static_cast<NodeId>(rng.below(70));
    NodeId b = half + static_cast<NodeId>(rng.below(70));
    if (a != b) g.add_link(a, b);
  }
  std::vector<std::uint32_t> weight(g.node_count(), 0);
  for (NodeId v = 0; v < 70; ++v) weight[v] = 2;
  expect_bitwise_equal(weighted_apl(g, weight, 2, 2),
                       oracle::weighted_apl_scalar(g, weight, 2, 2), "one side weighted");
  weight[139] = 1;
  EXPECT_THROW(weighted_apl(g, weight, 2, 2), std::runtime_error);
  EXPECT_THROW(oracle::weighted_apl_scalar(g, weight, 2, 2), std::runtime_error);
}

TEST(MultiBfs, WeightedAplOverflowGuard) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1);
  g.add_link(1, 2);
  // (sum w)^2 = 2^66 does not fit 64 bits: refused before any traversal.
  const std::uint32_t big = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> huge{big, 0, big};
  EXPECT_THROW(weighted_apl(g, huge, 2, 2), std::overflow_error);
  EXPECT_THROW(require_apl_sum_fits(huge, 2, 2), std::overflow_error);
  // Just inside the bound: (2^30)^2 * (3 - 1 + 2) = 2^62. The total is
  // still exact and equal to the long-double oracle.
  std::vector<std::uint32_t> large{1u << 29, 0, 1u << 29};
  EXPECT_NO_THROW(require_apl_sum_fits(large, 2, 2));
  expect_bitwise_equal(weighted_apl(g, large, 2, 2),
                       oracle::weighted_apl_scalar(g, large, 2, 2), "large weights");
  // One past it: 2^31 squared times 4 is 2^64.
  std::vector<std::uint32_t> edge{1u << 30, 0, 1u << 30};
  EXPECT_THROW(weighted_apl(g, edge, 2, 2), std::overflow_error);
}

TEST(MultiBfs, FatTreeAplBitwiseEqualAcrossThreadCounts) {
  topo::FatTree ft = topo::build_fat_tree(8);
  exec::set_global_threads(1);
  AplResult serial = topo::server_apl(ft.topo);
  oracle::reset_oracle_bfs_settled();
  AplResult scalar = oracle::weighted_apl_scalar(ft.topo.graph(), ft.topo.servers_per_switch(),
                                                 /*offset=*/2, /*same_node_dist=*/2);
  exec::set_global_threads(4);
  AplResult parallel, again;
  const BfsWork at4 = bfs_work([&] { parallel = topo::server_apl(ft.topo); });
  const BfsWork again4 = bfs_work([&] { again = topo::server_apl(ft.topo); });
  exec::set_global_threads(1);
  EXPECT_EQ(serial.average, parallel.average);
  EXPECT_EQ(serial.average, again.average);
  EXPECT_EQ(serial.average, scalar.average);
  EXPECT_EQ(serial.pairs, scalar.pairs);
  // Operation counters are deterministic too: identical across runs.
  EXPECT_EQ(at4.batches, again4.batches);
  EXPECT_EQ(at4.words_touched, again4.words_touched);
  EXPECT_EQ(at4.node_expansions, again4.node_expansions);
  EXPECT_EQ(at4.nodes_visited, again4.nodes_visited);
  // The counting path reaches exactly the (source, node) pairs the scalar
  // kernel settles: the batching saves expansions, not reach.
  EXPECT_EQ(at4.nodes_visited, oracle::oracle_bfs_settled());
  EXPECT_LT(at4.node_expansions * 10, at4.nodes_visited);
}

TEST(MultiBfs, CertifyCatchesCorruptedRow) {
  Graph g = random_graph(50, 120, 51);
  MultiSourceBfs engine(g);
  std::vector<NodeId> sources{0, 1, 2, 3};
  engine.run(sources.data(), sources.size());
  auto row = engine.distances(0);
  std::vector<std::uint32_t> dist(row.begin(), row.end());
  EXPECT_TRUE(check::certify_distances(g, 0, dist).ok());
  // Corrupt one settled entry: the certificate must flag it.
  NodeId victim = 0;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (dist[v] != kUnreachable && dist[v] > 0) victim = v;
  ASSERT_NE(victim, 0u);
  dist[victim] += 1;
  EXPECT_FALSE(check::certify_distances(g, 0, dist).ok());
}

TEST(MultiBfs, AuditHookSamplesEveryBatch) {
  // Ring + random chords: connected by construction (weighted_apl throws
  // on disconnected weighted pairs).
  Graph g;
  g.add_nodes(100);
  for (NodeId v = 0; v < 100; ++v) g.add_link(v, (v + 1) % 100);
  util::Rng rng(61);
  for (int i = 0; i < 200; ++i) {
    NodeId a = static_cast<NodeId>(rng.below(100));
    NodeId b = static_cast<NodeId>(rng.below(100));
    if (a != b) g.add_link(a, b);
  }
  static std::mutex mu;
  static std::vector<std::pair<NodeId, std::vector<std::uint32_t>>> rows;
  static std::atomic<int> certified{0};
  rows.clear();
  certified = 0;
  set_distance_audit_hook([](const Graph& graph, NodeId source,
                             const std::vector<std::uint32_t>& dist) {
    if (check::certify_distances(graph, source, dist).ok()) certified.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    rows.emplace_back(source, dist);
  });
  ASSERT_TRUE(is_connected(g));
  std::vector<std::uint32_t> weight(g.node_count(), 1);
  weight[70] = 4;  // the second batch takes the mixed-weight walk
  exec::set_global_threads(4);
  const AplResult r = weighted_apl(g, weight, 0, 0);
  exec::set_global_threads(1);
  set_distance_audit_hook(nullptr);
  expect_bitwise_equal(r, oracle::weighted_apl_scalar(g, weight, 0, 0), "hooked");
  // 100 sources at batch width 64 -> 2 batches, each sampled once, with
  // the batch's first source and its exact scalar row.
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(certified.load(), 2);
  std::set<NodeId> sampled;
  for (const auto& [source, dist] : rows) {
    sampled.insert(source);
    EXPECT_EQ(dist, bfs_distances(g, source)) << "source=" << source;
  }
  EXPECT_EQ(sampled, (std::set<NodeId>{0, 64}));
}

}  // namespace
}  // namespace flattree::graph
