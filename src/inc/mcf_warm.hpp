#pragma once
// Warm-start cache for Garg-Koenemann solves across a sweep.
//
// Wraps mcf::max_concurrent_flow with a one-deep memory of the previous
// instance, its result and its final dual lengths, and picks the
// strongest safe warm tier per call:
//
//   * identical instance (same link list bit-for-bit, same commodities,
//     same epsilon/options) -> exact resume: the stored result is returned
//     without a solver call. The solver is a pure function of its inputs,
//     so this is exactly what a new solve would return, truncated and
//     partially unreachable runs included;
//   * same node space, overlapping links -> dual seed: prior lengths are
//     mapped link-by-link onto the new instance (matched by normalized
//     endpoints + exact capacity, multiset semantics for parallel links),
//     fresh links start at the cold floor (see mcf::McfWarmState). Only a
//     run that reached D(l) >= 1 seeds the next one;
//   * anything else (node-count change, first call) -> cold solve.
//
// Every dual-seeded result is certified through check::certify before it
// is returned — correctness is externally verified per solve, not assumed
// from the warm-start reasoning (a failed certificate throws
// std::runtime_error; it indicates a solver bug, not bad input). Cold
// solves are returned as-is, exactly what the caller would have gotten
// without the cache, and a hit returns one of those two.
//
// Not thread-safe: one cache per sweep loop, called sequentially.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mcf/commodity.hpp"
#include "mcf/garg_koenemann.hpp"

namespace flattree::inc {

/// Which warm tier a solve used (McfWarmCache::last_tier()).
enum class WarmTier { Cold, DualSeed, ExactResume };

/// Tuning knobs for McfWarmCache.
struct McfWarmCacheOptions {
  /// Restrict the cache to the ExactResume tier; the cache then keeps no
  /// dual lengths at all. Exact resumes are bitwise identical to a cold
  /// solve; dual seeds are certified-correct but take a different phase
  /// trajectory, so their bounds differ in the low bits.
  /// Benches that promise byte-identical stdout under --incremental
  /// (bench_failures, bench_hybrid) run exact-only; sweeps that only need
  /// certified bounds can keep dual seeding on.
  bool exact_only = false;
};

/// Warm-start cache around mcf::max_concurrent_flow: keeps the previous
/// solve's result and dual lengths, returns the result again for an
/// identical instance, and seeds the duals (certified, see
/// McfWarmCacheOptions) when a sweep re-solves a slightly edited instance.
class McfWarmCache {
 public:
  McfWarmCache() = default;
  explicit McfWarmCache(McfWarmCacheOptions options) : opt_(options) {}

  /// Drop-in replacement for mcf::max_concurrent_flow. `options`'
  /// warm_start/export_state fields are owned by the cache and must be
  /// null (std::invalid_argument otherwise).
  mcf::McfResult solve(const graph::Graph& g,
                       const std::vector<mcf::Commodity>& commodities,
                       const mcf::McfOptions& options);

  /// Tier used by the most recent solve().
  WarmTier last_tier() const { return last_tier_; }

  /// Forgets the stored instance (next solve is cold).
  void reset();

 private:
  struct Instance {
    std::size_t nodes = 0;
    std::vector<graph::Link> links;  ///< links in id order
    std::vector<mcf::Commodity> commodities;
    double epsilon = 0.0;
    std::uint64_t max_phases = 0;
    /// Deadline budget (src/svc SLO layer). Part of the instance key: a
    /// resume across different budgets would return the old budget's
    /// trajectory, not what a cold solve under the new budget produces.
    std::uint64_t max_augmentations = 0;
    bool allow_unreachable = false;
    /// A hit must not hand lambda_upper = inf to a caller that asked for
    /// the bound.
    bool compute_upper_bound = false;
  };

  McfWarmCacheOptions opt_;
  bool has_prev_ = false;
  Instance prev_;
  mcf::McfResult result_;    ///< prev_'s result, returned on a hit
  mcf::McfWarmState state_;  ///< prev_'s final duals; empty unless it may seed
  WarmTier last_tier_ = WarmTier::Cold;
};

}  // namespace flattree::inc
