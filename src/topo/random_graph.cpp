#include "topo/random_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "graph/bfs.hpp"

namespace flattree::topo {

namespace {

using Pair = std::pair<NodeId, NodeId>;

std::uint64_t key_of(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// One configuration-model draw followed by edge-swap repair.
/// Returns true on success (all edges simple).
bool try_pairing(const std::vector<std::uint32_t>& stubs, util::Rng& rng,
                 std::vector<Pair>& edges) {
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < stubs.size(); ++v)
    for (std::uint32_t s = 0; s < stubs[v]; ++s) pool.push_back(v);
  if (pool.size() % 2 != 0) {
    // Leave one port idle on the highest-degree node (deterministic choice).
    auto it = std::max_element(stubs.begin(), stubs.end());
    NodeId victim = static_cast<NodeId>(it - stubs.begin());
    pool.erase(std::find(pool.begin(), pool.end(), victim));
  }
  rng.shuffle(pool);

  edges.clear();
  edges.reserve(pool.size() / 2);
  std::unordered_map<std::uint64_t, std::uint32_t> count;
  for (std::size_t i = 0; i + 1 < pool.size(); i += 2) {
    edges.emplace_back(pool[i], pool[i + 1]);
    ++count[key_of(pool[i], pool[i + 1])];
  }

  auto is_bad = [&](const Pair& e) {
    return e.first == e.second || count[key_of(e.first, e.second)] > 1;
  };

  // Edge-swap repair: exchange endpoints with a random partner edge until
  // no self-loops or duplicates remain.
  const std::size_t kRounds = 200;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<std::size_t> bad;
    for (std::size_t i = 0; i < edges.size(); ++i)
      if (is_bad(edges[i])) bad.push_back(i);
    if (bad.empty()) return true;

    bool improved = false;
    for (std::size_t i : bad) {
      if (!is_bad(edges[i])) continue;  // fixed as a side effect earlier
      for (int attempt = 0; attempt < 32; ++attempt) {
        std::size_t j = rng.index(edges.size());
        if (j == i) continue;
        auto [a1, b1] = edges[i];
        auto [a2, b2] = edges[j];
        // Candidate swap: (a1,b2) and (a2,b1).
        if (a1 == b2 || a2 == b1) continue;
        std::uint64_t k_old1 = key_of(a1, b1), k_old2 = key_of(a2, b2);
        std::uint64_t k_new1 = key_of(a1, b2), k_new2 = key_of(a2, b1);
        // Simulate count updates.
        --count[k_old1];
        --count[k_old2];
        bool ok = count[k_new1] == 0 && count[k_new2] == 0 && k_new1 != k_new2;
        if (!ok) {
          ++count[k_old1];
          ++count[k_old2];
          continue;
        }
        ++count[k_new1];
        ++count[k_new2];
        edges[i] = {a1, b2};
        edges[j] = {a2, b1};
        improved = true;
        break;
      }
    }
    if (!improved) break;  // stuck; caller reshuffles
  }
  return false;
}

}  // namespace

std::vector<Pair> random_simple_pairing(const std::vector<std::uint32_t>& stubs,
                                        util::Rng& rng, std::uint32_t max_attempts) {
  std::vector<Pair> edges;
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt)
    if (try_pairing(stubs, rng, edges)) return edges;
  throw std::runtime_error("random_simple_pairing: failed to build a simple graph");
}

Topology build_jellyfish_like_fat_tree(std::uint32_t k, util::Rng& rng) {
  ClosParams p;
  p.k = k;
  if (k < 4 || k % 2 != 0)
    throw std::invalid_argument("build_jellyfish_like_fat_tree: k must be even and >= 4");
  const std::uint32_t switches = p.total_switches();
  const std::uint32_t servers = p.total_servers();
  for (std::uint32_t attempt = 0; attempt < 64; ++attempt) {
    Topology topo;
    // Preserve the equipment inventory labels (pure bookkeeping).
    for (std::uint32_t pod = 0; pod < p.pods(); ++pod) {
      for (std::uint32_t j = 0; j < p.d(); ++j)
        topo.add_switch(SwitchKind::Edge, static_cast<std::int32_t>(pod), j, k);
      for (std::uint32_t i = 0; i < p.aggs_per_pod(); ++i)
        topo.add_switch(SwitchKind::Aggregation, static_cast<std::int32_t>(pod), i, k);
    }
    for (std::uint32_t c = 0; c < p.cores(); ++c)
      topo.add_switch(SwitchKind::Core, -1, c, k);

    for (std::uint32_t s = 0; s < servers; ++s) topo.add_server(s % switches);

    std::vector<std::uint32_t> stubs(switches);
    auto per_switch = topo.servers_per_switch();
    for (std::uint32_t v = 0; v < switches; ++v) stubs[v] = k - per_switch[v];
    auto pairs = random_simple_pairing(stubs, rng, 4);
    for (auto [a, b] : pairs) topo.add_link(a, b, LinkOrigin::Random);
    if (graph::is_connected(topo.graph())) return topo;
  }
  throw std::runtime_error("build_jellyfish_like_fat_tree: failed to draw connected graph");
}

}  // namespace flattree::topo
