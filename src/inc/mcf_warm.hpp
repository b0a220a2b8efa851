#pragma once
// Warm-start cache for Garg-Koenemann solves across a sweep.
//
// Wraps mcf::max_concurrent_flow with a one-deep memory of the previous
// instance and its terminal solver state, and picks the strongest safe
// warm tier per call (see mcf::McfWarmState):
//
//   * identical instance (same link list bit-for-bit, same commodities,
//     same epsilon/options) -> exact resume: bitwise-identical result,
//     every prior phase saved;
//   * same node space, overlapping links -> dual seed: prior lengths are
//     mapped link-by-link onto the new instance (matched by normalized
//     endpoints + exact capacity, multiset semantics for parallel links),
//     fresh links start at the cold floor;
//   * anything else (node-count change, first call) -> cold solve.
//
// Every warm-started result is re-certified through check::certify before
// it is returned — correctness is externally verified per solve, not
// assumed from the warm-start reasoning (a failed certificate throws
// std::runtime_error; it indicates a solver bug, not bad input). Cold
// solves are returned as-is, exactly what the caller would have gotten
// without the cache.
//
// Not thread-safe: one cache per sweep loop, called sequentially (the
// solver parallelizes internally).

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
  /// Restrict the cache to the ExactResume tier. Exact resumes are bitwise
  /// identical to a cold solve; dual seeds are certified-correct but take a
  /// different phase trajectory, so their bounds differ in the low bits.
  /// Benches that promise byte-identical stdout under --incremental
  /// (bench_failures, bench_hybrid) run exact-only; sweeps that only need
  /// certified bounds can keep dual seeding on.
  bool exact_only = false;
};

/// Warm-start cache around mcf::max_concurrent_flow: keeps the previous
/// solve's phase state per commodity-set shape and resumes (exactly, or
/// via certified dual seeding — see McfWarmCacheOptions) when a sweep
/// re-solves a slightly edited instance.
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
  };

  McfWarmCacheOptions opt_;
  bool has_state_ = false;
  Instance prev_;
  mcf::McfWarmState state_;
  WarmTier last_tier_ = WarmTier::Cold;
};

}  // namespace flattree::inc
