#include "graph/multi_bfs.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "obs/metrics.hpp"

namespace flattree::graph {

namespace {

// The batched engine bills the same per-source BFS counters as the scalar
// kernels (graph.bfs.*) so manifests stay comparable across engines, plus
// engine-level counters for the batch mechanics. Both settle modes bill
// runs, visits and word work identically; only row mode, whose rows show
// each source's reach, feeds the per-source histogram.
obs::Counter c_bfs_runs("graph.bfs.runs");
obs::Counter c_bfs_visited("graph.bfs.nodes_visited");
obs::Histogram h_bfs_visited("graph.bfs.visited_per_source",
                             obs::Histogram::exponential_bounds(16.0, 4.0, 10));
obs::Counter c_batches("graph.bitbfs.batches");
obs::Counter c_expansions("graph.bitbfs.node_expansions");
obs::Counter c_words("graph.bitbfs.words_touched");

DistanceAuditHook& audit_hook() {
  static DistanceAuditHook hook;
  return hook;
}

}  // namespace

void set_distance_audit_hook(DistanceAuditHook hook) { audit_hook() = std::move(hook); }

MultiSourceBfs::MultiSourceBfs(const Graph& g) : g_(&g), node_count_(g.node_count()) {
  g.ensure_csr();
  visited_.resize(node_count_, 0);
  frontier_.resize(node_count_, 0);
  next_.resize(node_count_, 0);
}

std::span<const std::uint32_t> MultiSourceBfs::distances(std::size_t i) const {
  if (i >= count_) throw std::out_of_range("MultiSourceBfs::distances: bad index");
  return {dist_.data() + i * node_count_, node_count_};
}

void MultiSourceBfs::check_batch(const NodeId* sources, std::size_t count) const {
  if (count == 0 || count > kBfsBatchWidth)
    throw std::invalid_argument("MultiSourceBfs::run: batch size out of range");
  for (std::size_t i = 0; i < count; ++i)
    if (sources[i] >= node_count_)
      throw std::invalid_argument("MultiSourceBfs::run: source out of range");
}

template <typename Settle>
void MultiSourceBfs::traverse(const NodeId* sources, std::size_t count, Settle&& settle) {
  const std::size_t n = node_count_;
  std::fill(visited_.begin(), visited_.end(), 0);
  std::fill(frontier_.begin(), frontier_.end(), 0);
  std::fill(next_.begin(), next_.end(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    visited_[sources[i]] |= std::uint64_t{1} << i;
    frontier_[sources[i]] |= std::uint64_t{1} << i;
  }

  // Local counters billed to obs once at the end (deterministic: the scan
  // order below is fixed, independent of threads or pool state, and the
  // settle callback does no word work of its own).
  std::uint32_t level = 0;
  std::uint64_t expansions = 0;
  std::uint64_t words = 0;
  std::uint64_t settled = count;  // sources settle at level 0

  for (;;) {
    ++level;
    // Expansion sweep: nodes in ascending id, arcs in CSR order. Word
    // accounting — one read per frontier word, one read per neighbour's
    // visited word, two writes when new bits land.
    for (NodeId u = 0; u < n; ++u) {
      const std::uint64_t fw = frontier_[u];
      ++words;
      if (!fw) continue;
      ++expansions;
      for (const Arc& arc : g_->neighbors(u)) {
        const NodeId v = arc.to;
        ++words;
        const std::uint64_t fresh = fw & ~visited_[v];
        if (fresh) {
          visited_[v] |= fresh;
          next_[v] |= fresh;
          words += 2;
        }
      }
    }
    // Settle sweep: hand this level's fresh bits per node to the mode and
    // detect termination.
    bool any = false;
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t nw = next_[v];
      ++words;
      if (!nw) continue;
      any = true;
      settled += static_cast<std::uint64_t>(std::popcount(nw));
      settle(v, nw, level);
    }
    if (!any) break;
    std::swap(frontier_, next_);
    std::fill(next_.begin(), next_.end(), 0);
    words += n;
  }

  if (obs::enabled()) {
    c_batches.inc();
    c_expansions.add(expansions);
    c_words.add(words);
    // Same totals as the scalar kernels: one run per source, one visit per
    // reached (source, node) pair.
    c_bfs_runs.add(count);
    c_bfs_visited.add(settled);
  }
}

void MultiSourceBfs::run(const NodeId* sources, std::size_t count) {
  check_batch(sources, count);
  const std::size_t n = node_count_;
  count_ = count;
  dist_.assign(count * n, kUnreachable);
  for (std::size_t i = 0; i < count; ++i) dist_[i * n + sources[i]] = 0;
  traverse(sources, count, [&](NodeId v, std::uint64_t nw, std::uint32_t level) {
    for (; nw; nw &= nw - 1)
      dist_[static_cast<std::size_t>(std::countr_zero(nw)) * n + v] = level;
  });
  if (obs::enabled())
    for (std::size_t i = 0; i < count; ++i) {
      const auto row = distances(i);
      const auto unreached = std::count(row.begin(), row.end(), kUnreachable);
      h_bfs_visited.observe(static_cast<double>(row.size()) -
                            static_cast<double>(unreached));
    }

  if (const DistanceAuditHook& hook = audit_hook()) {
    std::vector<std::uint32_t> row(dist_.begin(),
                                   dist_.begin() + static_cast<std::ptrdiff_t>(n));
    hook(*g_, sources[0], row);
  }
}

LevelSums MultiSourceBfs::run_counting(const NodeId* sources, std::size_t count,
                                       const std::vector<std::uint32_t>& weight) {
  check_batch(sources, count);
  if (weight.size() != node_count_)
    throw std::invalid_argument("MultiSourceBfs::run_counting: weight size mismatch");
  count_ = 0;

  // Equal source weights (the common case: every switch of a Clos edge
  // layer hosts the same number of servers) let one popcount stand for the
  // whole fresh word; the shared weight multiplies in once at the end.
  std::uint32_t source_weight[kBfsBatchWidth] = {};
  bool uniform = true;
  LevelSums sums;
  for (std::size_t i = 0; i < count; ++i) {
    source_weight[i] = weight[sources[i]];
    uniform = uniform && source_weight[i] == source_weight[0];
    if (source_weight[i] != 0) ++sums.target_hits;
  }

  // With an audit hook installed, source 0's row is recorded (and only
  // then): the sampled row --selfcheck certifies.
  const DistanceAuditHook& hook = audit_hook();
  if (hook) {
    dist_.assign(node_count_, kUnreachable);
    dist_[sources[0]] = 0;
  }

  traverse(sources, count, [&](NodeId v, std::uint64_t nw, std::uint32_t level) {
    if (hook && (nw & 1)) dist_[v] = level;
    const std::uint64_t wv = weight[v];
    if (wv == 0) return;
    sums.target_hits += static_cast<std::uint64_t>(std::popcount(nw));
    sums.depth = level;
    std::uint64_t from = 0;  // summed source weight of the fresh bits
    if (uniform) {
      from = static_cast<std::uint64_t>(std::popcount(nw));
    } else {
      for (; nw; nw &= nw - 1) from += source_weight[std::countr_zero(nw)];
    }
    sums.weighted_hops += level * wv * from;
  });
  if (uniform) sums.weighted_hops *= source_weight[0];

  if (hook) hook(*g_, sources[0], dist_);
  return sums;
}

std::unique_ptr<MultiSourceBfs> MultiBfsPool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto engine = std::move(free_.back());
      free_.pop_back();
      return engine;
    }
  }
  return std::make_unique<MultiSourceBfs>(*g_);
}

void MultiBfsPool::release(std::unique_ptr<MultiSourceBfs> engine) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(engine));
}

}  // namespace flattree::graph
