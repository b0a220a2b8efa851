#pragma once
// SLO deadline budgets for throughput queries.
//
// A wall-clock deadline cannot gate a deterministic service — the same
// request must produce the same answer at any thread count and on any
// machine. The SLO layer therefore converts a request's `deadline_ms` into
// a *deterministic* work budget: a cap on Garg-Koenemann augmentations
// (mcf::McfOptions::max_augmentations), using a fixed cost model rather
// than a timer. The session hands that budget to fault::assess, whose
// solve stops at it with `truncated = true` and a certified lower bound
// instead of blowing the deadline; check::certify_served re-derives
// feasibility, conservation, support, and the lambda bracket from the
// flows, so a truncated answer is still externally verified evidence,
// just with a wider bracket.
//
// The augmentations-per-millisecond rate is a fixed constant, not a
// measurement: it makes the deadline-to-budget map a pure function of the
// request. bench_service reports how well it tracks real wall time (SLO
// hit rate, latency percentiles).

#include <cstdint>

namespace flattree::svc {

/// GK augmentations afforded per deadline millisecond.
inline constexpr double kAugmentationsPerMs = 4000.0;
/// Floor: even a tiny deadline buys enough work for a usable bound.
inline constexpr std::uint64_t kMinAugmentations = 32;

/// Annealing iterations afforded per deadline millisecond (the `design`
/// op's unit of work is a candidate evaluation, not an augmentation).
inline constexpr double kDesignIterationsPerMs = 0.25;
/// Floor for budgeted design searches: a few moves beat none.
inline constexpr std::uint64_t kMinDesignIterations = 4;

/// Maps a deadline to an augmentation budget (0 deadline = 0 = unlimited)
/// at kAugmentationsPerMs, floored at kMinAugmentations.
std::uint64_t budget_augmentations(double deadline_ms);

/// Maps a deadline to a design-search iteration budget (0 deadline = 0 =
/// unlimited) at kDesignIterationsPerMs, floored at kMinDesignIterations,
/// with the same saturating shape as budget_augmentations.
std::uint64_t budget_iterations(double deadline_ms);

}  // namespace flattree::svc
