#pragma once
// Deterministic local-search/annealing over conversion-plan candidates.
//
// The search walks the zone-layout space with five neighborhood moves
// (flip a zone's mode, shift a zone boundary, split a zone, merge two
// adjacent zones, swap two zones' modes). Every random choice of
// iteration i — move proposal and Metropolis acceptance draw — comes
// from Rng::substream(seed, kMoveStream + i), so a run is a pure
// function of (plant, mix, options): replayable at any thread count,
// with the accepted-move log as the replay witness.
//
// Schedule: greedy uphill plus simulated-annealing downhill acceptance
// with a geometric temperature T_i = initial_temperature * scale *
// cooling^i, where scale is the best uniform objective (temperatures are
// declared as fractions of the objective, not absolute throughputs).
//
// Scoring during the walk uses score_candidate, whose scores equal a
// cold solve's bit for bit; the three uniform baselines and the final
// winner are scored cold and certified (check::validate +
// check::certify), so the reported numbers carry the full battery's
// evidence.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/flat_tree.hpp"
#include "design/candidate.hpp"
#include "design/objective.hpp"
#include "util/rng.hpp"

namespace flattree::design {

/// Neighborhood move kinds (see file header).
enum class MoveKind : std::uint8_t {
  FlipMode,      ///< re-mode one zone
  MoveBoundary,  ///< shift a zone boundary by one pod
  SplitZone,     ///< split a zone, re-mode the right part
  MergeZones,    ///< merge two adjacent zones (larger zone's mode wins)
  SwapModes,     ///< swap the modes of two zones
};

/// Token form of a MoveKind ("flip", "boundary", "split", "merge", "swap").
const char* to_string(MoveKind kind);

/// One concrete move. Operand meaning per kind: FlipMode {zone, mode};
/// MoveBoundary {zone = boundary index b in [1, zones), arg = 1 to grow
/// the left zone, 0 to grow the right}; SplitZone {zone, arg = split
/// offset, mode for the right part}; MergeZones {zone = left zone of the
/// pair}; SwapModes {zone, arg = partner zone}.
struct Move {
  MoveKind kind = MoveKind::FlipMode;
  std::uint32_t zone = 0;
  std::uint32_t arg = 0;
  core::Mode mode = core::Mode::Clos;
};

/// Compact single-line rendering ("flip z1 -> local-random") used by the
/// accepted-move log, bench output, and the determinism tests.
std::string to_string(const Move& move);

/// Applies `move` to `candidate`; std::nullopt when the move is
/// infeasible against this layout (out-of-range operands, empty-zone
/// results, or a no-op swap).
std::optional<Candidate> apply_move(const Candidate& candidate, const Move& move);

/// Draws one move proposal from `rng`. std::nullopt when the drawn kind
/// is infeasible for this layout (e.g. MergeZones on a single zone) —
/// the search counts those as skipped iterations.
std::optional<Move> propose_move(const Candidate& candidate, util::Rng& rng);

/// Search knobs. Defaults match bench_design's defaults.
struct SearchOptions {
  std::uint64_t seed = 1;            ///< substream base for the move stream
  std::uint32_t iterations = 32;     ///< annealing iterations
  double initial_temperature = 0.05; ///< fraction of the best uniform objective
  double cooling = 0.92;             ///< geometric temperature factor
};

/// Cold certified score of one uniform baseline mode.
struct UniformScore {
  core::Mode mode = core::Mode::Clos;
  Score score;
  bool certified = false;  ///< validate + certify battery passed
};

/// One accepted move of the walk (the replay witness).
struct AcceptedMove {
  std::uint32_t iteration = 0;
  Move move;
  double objective = 0.0;  ///< objective after the move
};

/// One objective-trajectory sample (every iteration is recorded).
struct TrajectoryPoint {
  std::uint32_t iteration = 0;
  double temperature = 0.0;
  double current = 0.0;  ///< objective of the current candidate
  double best = 0.0;     ///< best objective so far
};

/// Everything a search run produces.
struct SearchResult {
  Candidate best;               ///< best layout found
  Score best_cold;              ///< its cold certified re-score
  bool certified = false;       ///< cold re-score passed the full battery
  std::vector<UniformScore> uniforms;  ///< Clos/Global/Local baselines
  core::Mode best_uniform = core::Mode::Clos;  ///< argmax of `uniforms`
  std::uint32_t accepted = 0;
  std::uint32_t rejected = 0;
  std::uint32_t skipped = 0;    ///< infeasible proposals
  std::vector<AcceptedMove> accepted_moves;
  std::vector<TrajectoryPoint> trajectory;
};

/// Runs the full search: uniform baselines (cold, certified), annealing
/// walk from the best uniform layout (score_candidate), cold certified
/// re-score of the winner. Deterministic for fixed (net, mix, options).
SearchResult search(const core::FlatTreeNetwork& net, const WorkloadMix& mix,
                    const SearchOptions& options);

}  // namespace flattree::design
