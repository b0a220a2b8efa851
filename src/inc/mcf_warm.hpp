#pragma once
// Exact-result memo for Garg-Koenemann solves across a sweep.
//
// Wraps mcf::max_concurrent_flow with a one-deep memory of the previous
// instance and its result:
//
//   * identical instance (same node count, same link list bit-for-bit,
//     same commodities, same McfOptions) -> exact resume: the stored result
//     is returned without a solver call. The solver is a pure function of
//     its inputs, so this is exactly what a new solve would return,
//     truncated and partially unreachable runs included;
//   * anything else (first call, any field changed) -> cold solve, which
//     then becomes the stored instance.
//
// Every answer is therefore bitwise what a cold solve would return.
//
// Not thread-safe: one cache per sweep loop, called sequentially.

#include <vector>

#include "graph/graph.hpp"
#include "mcf/commodity.hpp"
#include "mcf/garg_koenemann.hpp"

namespace flattree::inc {

/// Which tier a solve used (McfWarmCache::last_tier()).
enum class WarmTier { Cold, ExactResume };

/// One-deep memo around mcf::max_concurrent_flow: returns the stored
/// result for a bit-identical instance and solves cold otherwise.
class McfWarmCache {
 public:
  /// Drop-in replacement for mcf::max_concurrent_flow.
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
    /// Every knob is part of the key: a resume across different
    /// augmentation budgets (src/svc SLO layer) would return the old
    /// budget's truncation point, and a hit must not hand lambda_upper =
    /// inf to a caller that asked for the bound.
    mcf::McfOptions options;
  };

  bool has_prev_ = false;
  Instance prev_;
  mcf::McfResult result_;  ///< prev_'s result, returned on a hit
  WarmTier last_tier_ = WarmTier::Cold;
};

}  // namespace flattree::inc
