// design::search: move application/proposal semantics and the
// determinism contract — the same seed and workload mix must produce the
// identical accepted-move sequence and final layout at any thread count,
// with the winner certified — and the solve count: one GK solve per
// scored candidate.

#include "design/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/parallel_for.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace flattree::design {
namespace {

using core::Mode;

core::FlatTreeNetwork small_net() {
  core::FlatTreeConfig cfg;
  cfg.k = 4;
  return core::FlatTreeNetwork(cfg);
}

/// A cheap mix for the walk tests: few demands, loose epsilon.
WorkloadMix small_mix() {
  WorkloadMix mix;
  mix.epsilon = 0.3;
  mix.components.push_back(
      {PatternKind::Broadcast, Affinity::Global, 8, 1,
       workload::Placement::NoLocality, 1.0, 1.0});
  mix.components.push_back(
      {PatternKind::AllToAll, Affinity::Local, 4, 1,
       workload::Placement::WeakLocality, 1.0, 1.0});
  return mix;
}

TEST(Move, FlipChangesOneZonesMode) {
  Candidate c = Candidate::uniform(4, Mode::Clos);
  auto flipped = apply_move(c, {MoveKind::FlipMode, 0, 0, Mode::GlobalRandom});
  ASSERT_TRUE(flipped.has_value());
  EXPECT_EQ(*flipped, Candidate::uniform(4, Mode::GlobalRandom));
  // Same-mode flip is a no-op and therefore infeasible.
  EXPECT_FALSE(apply_move(c, {MoveKind::FlipMode, 0, 0, Mode::Clos}).has_value());
  EXPECT_FALSE(apply_move(c, {MoveKind::FlipMode, 3, 0, Mode::LocalRandom})
                   .has_value());  // zone out of range
}

TEST(Move, BoundaryShiftsOnePod) {
  Candidate c = Candidate::from_zones(
      6, {{0, 3, Mode::Clos}, {3, 6, Mode::GlobalRandom}});
  auto left = apply_move(c, {MoveKind::MoveBoundary, 1, 1, Mode::Clos});
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(left->zones()[0], (Zone{0, 4, Mode::Clos}));
  auto right = apply_move(c, {MoveKind::MoveBoundary, 1, 0, Mode::Clos});
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(right->zones()[0], (Zone{0, 2, Mode::Clos}));
  // A shift that would empty a zone is infeasible.
  Candidate tight = Candidate::from_zones(
      2, {{0, 1, Mode::Clos}, {1, 2, Mode::GlobalRandom}});
  EXPECT_FALSE(
      apply_move(tight, {MoveKind::MoveBoundary, 1, 1, Mode::Clos}).has_value());
}

TEST(Move, SplitMergeAndSwap) {
  Candidate c = Candidate::uniform(6, Mode::Clos);
  auto split = apply_move(c, {MoveKind::SplitZone, 0, 4, Mode::LocalRandom});
  ASSERT_TRUE(split.has_value());
  ASSERT_EQ(split->zones().size(), 2u);
  EXPECT_EQ(split->zones()[1], (Zone{4, 6, Mode::LocalRandom}));
  // Splitting off the same mode would merge right back: infeasible.
  EXPECT_FALSE(apply_move(c, {MoveKind::SplitZone, 0, 4, Mode::Clos}).has_value());

  // Merge: the larger zone's mode wins.
  auto merged = apply_move(*split, {MoveKind::MergeZones, 0, 0, Mode::Clos});
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, Candidate::uniform(6, Mode::Clos));

  auto swapped = apply_move(*split, {MoveKind::SwapModes, 0, 1, Mode::Clos});
  ASSERT_TRUE(swapped.has_value());
  EXPECT_EQ(swapped->zones()[0].mode, Mode::LocalRandom);
  EXPECT_EQ(swapped->zones()[1].mode, Mode::Clos);
  // Swapping two same-mode zones is a no-op: infeasible.
  Candidate alt = Candidate::from_zones(6, {{0, 2, Mode::Clos},
                                            {2, 4, Mode::LocalRandom},
                                            {4, 6, Mode::Clos}});
  EXPECT_FALSE(apply_move(alt, {MoveKind::SwapModes, 0, 2, Mode::Clos}).has_value());
}

TEST(Move, ProposalsAreFeasibleWhenNotNull) {
  Candidate c = Candidate::from_zones(8, {{0, 5, Mode::GlobalRandom},
                                          {5, 8, Mode::LocalRandom}});
  util::Rng rng = util::Rng::substream(7, 0);
  int applied = 0;
  for (int i = 0; i < 200; ++i) {
    auto move = propose_move(c, rng);
    if (!move.has_value()) continue;
    auto next = apply_move(c, *move);
    EXPECT_TRUE(next.has_value()) << to_string(*move);
    ++applied;
  }
  EXPECT_GT(applied, 0);
}

TEST(Search, DeterministicAcrossThreadCounts) {
  core::FlatTreeNetwork net = small_net();
  WorkloadMix mix = small_mix();
  SearchOptions opt;
  opt.seed = 3;
  opt.iterations = 12;

  exec::set_global_threads(1);
  SearchResult a = search(net, mix, opt);
  exec::set_global_threads(8);
  SearchResult b = search(net, mix, opt);
  exec::set_global_threads(0);

  // Identical accepted-move sequence (the replay witness) ...
  ASSERT_EQ(a.accepted_moves.size(), b.accepted_moves.size());
  for (std::size_t i = 0; i < a.accepted_moves.size(); ++i) {
    EXPECT_EQ(a.accepted_moves[i].iteration, b.accepted_moves[i].iteration);
    EXPECT_EQ(to_string(a.accepted_moves[i].move),
              to_string(b.accepted_moves[i].move));
    EXPECT_EQ(a.accepted_moves[i].objective, b.accepted_moves[i].objective);
  }
  // ... the identical final layout, byte for byte ...
  EXPECT_EQ(a.best.encode(), b.best.encode());
  EXPECT_EQ(a.best_score.objective, b.best_score.objective);
  // ... and identical walk accounting.
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.skipped, b.skipped);
}

TEST(Search, DeterministicWithObsOnOrOff) {
  core::FlatTreeNetwork net = small_net();
  WorkloadMix mix = small_mix();
  SearchOptions opt;
  opt.iterations = 10;

  SearchResult off = search(net, mix, opt);
  obs::set_enabled(true);
  SearchResult on = search(net, mix, opt);
  obs::set_enabled(false);
  EXPECT_EQ(off.best.encode(), on.best.encode());
  EXPECT_EQ(off.accepted, on.accepted);
  EXPECT_EQ(off.best_score.objective, on.best_score.objective);
}

TEST(Search, WinnerIsCertifiedAndNeverBelowTheBestUniform) {
  core::FlatTreeNetwork net = small_net();
  SearchOptions opt;
  opt.iterations = 16;
  SearchResult r = search(net, small_mix(), opt);

  ASSERT_EQ(r.uniforms.size(), 3u);
  for (const UniformScore& u : r.uniforms) EXPECT_TRUE(u.score.certified);
  EXPECT_TRUE(r.best_score.certified);

  double best_uniform = 0.0;
  for (const UniformScore& u : r.uniforms)
    best_uniform = std::max(best_uniform, u.score.objective);
  EXPECT_EQ(r.best_uniform_score().score.objective, best_uniform);
  // The walk starts from the best uniform and keeps the best-so-far, so
  // the certified winner can never fall below it.
  EXPECT_GE(r.best_score.objective, best_uniform);

  // The demand count is layout-independent: every uniform baseline and the
  // winner score the same declared workload.
  for (const UniformScore& u : r.uniforms)
    EXPECT_EQ(u.score.demands, r.best_score.demands);

  // Every iteration lands in the trajectory exactly once.
  ASSERT_EQ(r.trajectory.size(), opt.iterations);
  EXPECT_EQ(r.accepted + r.rejected + r.skipped, opt.iterations);
}

TEST(Search, AcceptedMovesReplayToTheFinalLayout) {
  core::FlatTreeNetwork net = small_net();
  SearchOptions opt;
  opt.iterations = 16;
  SearchResult r = search(net, small_mix(), opt);

  // Replaying the accepted-move log from the best uniform layout must
  // visit the reported best candidate (the walk's current layout passes
  // through it; the best is the prefix with the highest objective).
  Candidate current = Candidate::uniform(net.params().pods(), r.best_uniform);
  bool visited = current == r.best;
  for (const AcceptedMove& am : r.accepted_moves) {
    auto next = apply_move(current, am.move);
    ASSERT_TRUE(next.has_value()) << to_string(am.move);
    current = *next;
    visited = visited || current == r.best;
  }
  EXPECT_TRUE(visited);
}

// Each candidate is solved once: the three uniforms, then one solve per
// decided walk move. The walk starts from the best uniform's stored score
// and the winner keeps the score its step produced, so there is no second
// solve of either.
TEST(Search, SolvesEachCandidateOnce) {
  core::FlatTreeNetwork net = small_net();
  SearchOptions opt;
  opt.iterations = 16;

  bool before = obs::enabled();
  obs::set_enabled(true);
  obs::reset_metrics();
  SearchResult r = search(net, small_mix(), opt);
  obs::MetricsSnapshot snap = obs::snapshot_metrics();
  obs::set_enabled(before);
  std::uint64_t solves = 0;
  for (const auto& [name, value] : snap.counters)
    if (name == "mcf.gk.solves") solves = value;

  ASSERT_GT(r.accepted + r.rejected, 0u);
  EXPECT_EQ(solves, r.uniforms.size() + r.accepted + r.rejected);
  EXPECT_EQ(r.certified_solves, solves);  // every solve passed its battery
}

}  // namespace
}  // namespace flattree::design
