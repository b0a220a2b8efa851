#pragma once
// Bit-parallel batched multi-source BFS: 64 sources per machine word.
//
// One scalar BFS per source touches every node and edge once *per source*;
// at mega scale (k=48/64 fat-trees, 100k+ servers) the per-source sweeps
// behind APL dominate everything else. This engine runs up to 64 sources
// in lock-step instead (Then et al., "The More the Merrier:
// Efficient Multi-Source Graph Traversal", VLDB 2015): each node carries
// one 64-bit word per role — `visited` (bit i: source i reached the node)
// and `frontier` (bit i: source i reached it at the current level) — and
// frontier expansion is a word-wide `frontier[u] & ~visited[v]` per arc,
// so one pass over the CSR advances all 64 traversals at once. Unit-weight
// distances are exact: every (source, node) pair settles at the first
// level its bit appears, identical to the scalar BFS result bit for bit.
//
// One expansion loop, two ways to settle a level. run() writes distance
// rows, for callers whose output *is* the rows (the certify_distances
// audit). run_counting() writes no rows:
// like Then et al.'s closeness-centrality use of MS-BFS it folds each
// level's fresh bits straight into an integer sum of weighted hop counts
// (a popcount per node when the batch's source weights are equal, a
// countr_zero walk over the fresh bits otherwise). APL only needs that
// sum, its depth and the reached count.
//
// Allocation discipline: an engine owns its scratch (three word arrays,
// plus the row-major distance block of row mode) and reuses it across
// runs — the hot loop allocates nothing. Parallel callers lease engines
// from a MultiBfsPool (one engine per concurrently running batch, recycled
// via a free list) instead of constructing per batch.
//
// Determinism contract: a batch's result and its operation counts are a
// pure function of (graph, source list, weights) — the expansion scans
// nodes in ascending id and arcs in CSR order, single-threaded per batch,
// and both settle modes do the same word work. Each batch bills its counts
// to the obs counters graph.bitbfs.{batches,node_expansions,words_touched}
// and graph.bfs.{runs,nodes_visited}; those totals are order-independent
// sums over batches, so they are identical at any thread count and in
// either mode, and benches record them as proof of work. The counting sums
// are integers, so any fold order over batches gives the same bits.
//
// Sampled certification: set_distance_audit_hook installs a process-wide
// callback invoked with the first source row of every batch, in either
// mode (a counting run records that one row only while a hook is
// installed). Benches use it under --selfcheck to run
// check::certify_distances on sampled batched rows without ft_graph
// depending on ft_check.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace flattree::graph {

/// Sources per batch: one bit per source in a 64-bit frontier word.
inline constexpr std::size_t kBfsBatchWidth = 64;

/// Callback receiving (graph, source, distance row) for the first source
/// of each completed batch; see set_distance_audit_hook.
using DistanceAuditHook =
    std::function<void(const Graph&, NodeId, const std::vector<std::uint32_t>&)>;

/// Installs (or, with nullptr, clears) the process-wide sampled-row audit
/// hook. Install before parallel work starts (the setter is not
/// synchronized against concurrent run() calls); the hook itself must be
/// thread-safe — it fires from whichever worker ran the batch.
void set_distance_audit_hook(DistanceAuditHook hook);

/// Per-batch result of MultiSourceBfs::run_counting. With w the weight
/// vector passed in, a *target* is a node with w[v] != 0.
struct LevelSums {
  /// Sum over reached (source s, target v != s) pairs of
  /// w[s] * w[v] * dist(s, v), in uint64 (exact while the caller's
  /// overflow bound holds; see graph::require_apl_sum_fits).
  std::uint64_t weighted_hops = 0;
  /// (source, target) pairs reached over every source of the batch, a
  /// source that is itself a target counting its own node: it equals
  /// (#sources) * (#targets) exactly when every target's visited word is
  /// full.
  std::uint64_t target_hits = 0;
  /// Deepest level at which some target was reached (0 when none was).
  std::uint32_t depth = 0;
};

/// Batched BFS engine over one graph. Not thread-safe: one engine serves
/// one batch at a time (lease per worker via MultiBfsPool for parallel
/// fan-out). Scratch is sized on first run and reused afterwards.
class MultiSourceBfs {
 public:
  /// Binds the engine to `g` (the CSR is built eagerly so runs never
  /// take the lazy-build lock). The graph must outlive the engine and
  /// must not be mutated while the engine is in use.
  explicit MultiSourceBfs(const Graph& g);

  /// Row mode: traverses from sources[0 .. count), count in
  /// [1, kBfsBatchWidth], and keeps one distance row per source. Throws
  /// std::invalid_argument on a bad count or an out-of-range source.
  void run(const NodeId* sources, std::size_t count);

  /// Counting mode: the same traversal as run(), but no rows are
  /// written; each level's fresh (source, node) bits fold into the
  /// returned LevelSums, with source i weighted by weight[sources[i]] and
  /// every node v by weight[v]. Throws as run() does, and on a weight
  /// vector whose size is not node_count(). A counting run leaves no rows
  /// behind: distances() throws until the next row-mode run.
  LevelSums run_counting(const NodeId* sources, std::size_t count,
                         const std::vector<std::uint32_t>& weight);

  /// Distance row of the i-th source of the last row-mode batch: exactly
  /// what bfs_distances returns for that source, kUnreachable marking
  /// unreached nodes. Valid until the next run; throws std::out_of_range
  /// when i is not below the last row-mode batch's source count (always
  /// after a counting run).
  std::span<const std::uint32_t> distances(std::size_t i) const;

 private:
  /// Throws std::invalid_argument on a bad batch (see run()).
  void check_batch(const NodeId* sources, std::size_t count) const;

  /// The one expansion loop over a checked batch: seeds it, then per level
  /// expands the frontier and hands every nonzero `next` word to
  /// settle(node, word, level).
  template <typename Settle>
  void traverse(const NodeId* sources, std::size_t count, Settle&& settle);

  const Graph* g_;
  std::size_t node_count_;
  std::vector<std::uint64_t> visited_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> next_;
  std::vector<std::uint32_t> dist_;  ///< row mode: dist_[i * node_count_ + v]
  std::size_t count_ = 0;  ///< sources of the last row-mode batch (0 after counting)
};

/// Thread-safe free list of MultiSourceBfs engines over one graph: at most
/// one engine is ever live per concurrently running batch, and engines are
/// recycled so repeated batches do no scratch allocation.
class MultiBfsPool {
 public:
  /// Builds the CSR once up front so leased engines never contend on it.
  explicit MultiBfsPool(const Graph& g) : g_(&g) { g.ensure_csr(); }

  /// Takes an engine from the free list (or constructs the pool's next
  /// one). Pair with release(); prefer the MultiBfsLease RAII wrapper.
  std::unique_ptr<MultiSourceBfs> acquire();

  /// Returns a leased engine to the free list.
  void release(std::unique_ptr<MultiSourceBfs> engine);

 private:
  const Graph* g_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<MultiSourceBfs>> free_;
};

/// RAII lease of a pool engine for one batch (or a sequence of batches on
/// the same worker).
class MultiBfsLease {
 public:
  explicit MultiBfsLease(MultiBfsPool& pool) : pool_(&pool), engine_(pool.acquire()) {}
  ~MultiBfsLease() { pool_->release(std::move(engine_)); }
  MultiBfsLease(const MultiBfsLease&) = delete;
  MultiBfsLease& operator=(const MultiBfsLease&) = delete;

  /// The leased engine.
  MultiSourceBfs* operator->() { return engine_.get(); }

 private:
  MultiBfsPool* pool_;
  std::unique_ptr<MultiSourceBfs> engine_;
};

}  // namespace flattree::graph
