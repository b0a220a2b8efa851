#pragma once
// SLO deadline budgets for throughput queries (ISSUE 6).
//
// A wall-clock deadline cannot gate a deterministic service — the same
// request must produce the same answer at any thread count and on any
// machine. The SLO layer therefore converts a request's `deadline_ms` into
// a *deterministic* work budget: a cap on Garg-Koenemann augmentations
// (mcf::McfOptions::max_augmentations), using a fixed cost model rather
// than a timer. A budgeted solve that runs out of augmentations returns
// `truncated = true` with a certified lower bound instead of blowing the
// deadline; check::certify_served re-derives feasibility, conservation,
// support, and the lambda bracket from the flows, so a truncated answer is
// still externally verified evidence, just with a wider bracket.
//
// The augmentations-per-millisecond rate is a policy knob (flattree_svc
// --augs-per-ms, refused unless finite and positive), not a measurement:
// it makes the deadline-to-budget map a pure function of the request. bench_service reports how well the default
// rate tracks real wall time (SLO hit rate, latency percentiles).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mcf/commodity.hpp"
#include "mcf/garg_koenemann.hpp"

namespace flattree::svc {

/// Deadline-to-budget cost model.
struct SloPolicy {
  /// GK augmentations afforded per deadline millisecond.
  double augmentations_per_ms = 4000.0;
  /// Floor: even a tiny deadline buys enough work for a usable bound.
  std::uint64_t min_augmentations = 32;
  /// Annealing iterations afforded per deadline millisecond (the `design`
  /// op's unit of work is a candidate evaluation, not an augmentation).
  double design_iterations_per_ms = 0.25;
  /// Floor for budgeted design searches: a few moves beat none.
  std::uint64_t min_design_iterations = 4;
};

/// Maps a deadline to an augmentation budget (0 deadline = 0 = unlimited).
/// Throws std::invalid_argument unless augmentations_per_ms is finite and
/// positive.
std::uint64_t budget_augmentations(const SloPolicy& policy, double deadline_ms);

/// Maps a deadline to a design-search iteration budget (0 deadline = 0 =
/// unlimited) using the same saturating policy shape as
/// budget_augmentations. Throws std::invalid_argument unless
/// design_iterations_per_ms is finite and positive.
std::uint64_t budget_iterations(const SloPolicy& policy, double deadline_ms);

/// A budgeted solve plus its certificate verdict.
struct SloSolve {
  mcf::McfResult result;
  bool certified = false;   ///< check::certify_served passed
  std::uint64_t budget = 0; ///< augmentation cap applied (0 = unlimited)
};

/// Budgeted, certified max concurrent flow: allow_unreachable (stranded
/// endpoints are excised, served_fraction reports the remainder), dual
/// upper bound on, at most `budget` augmentations. GK is a pure function
/// of its inputs, so the answer never depends on which thread or batch
/// layout asked for it — the service's byte-identity rests on that.
SloSolve solve_with_budget(const graph::Graph& g,
                           const std::vector<mcf::Commodity>& commodities,
                           double epsilon, std::uint64_t budget);

}  // namespace flattree::svc
