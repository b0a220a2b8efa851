#include "design/search.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"

namespace flattree::design {
namespace {

using util::Rng;

// Substream layout under SearchOptions::seed: iteration i draws its move
// proposal and acceptance coin from stream kMoveStream + i. Disjoint from
// the objective's component streams (those hang off WorkloadMix::seed).
constexpr std::uint64_t kMoveStream = 1u << 20;

obs::Counter c_scored("design.candidates_scored");
obs::Counter c_accepted("design.moves_accepted");
obs::Counter c_rejected("design.moves_rejected");
obs::Counter c_skipped("design.moves_skipped");
obs::Counter c_rescore("design.certify_rescore");

// The two modes other than `mode`, in enum order.
std::array<core::Mode, 2> other_modes(core::Mode mode) {
  switch (mode) {
    case core::Mode::Clos:
      return {core::Mode::GlobalRandom, core::Mode::LocalRandom};
    case core::Mode::GlobalRandom:
      return {core::Mode::Clos, core::Mode::LocalRandom};
    case core::Mode::LocalRandom:
    default:
      return {core::Mode::Clos, core::Mode::GlobalRandom};
  }
}

}  // namespace

const char* to_string(MoveKind kind) {
  switch (kind) {
    case MoveKind::FlipMode: return "flip";
    case MoveKind::MoveBoundary: return "boundary";
    case MoveKind::SplitZone: return "split";
    case MoveKind::MergeZones: return "merge";
    case MoveKind::SwapModes: return "swap";
  }
  return "?";
}

std::string to_string(const Move& move) {
  std::ostringstream out;
  out << to_string(move.kind) << " z" << move.zone;
  switch (move.kind) {
    case MoveKind::FlipMode:
      out << " -> " << core::to_string(move.mode);
      break;
    case MoveKind::MoveBoundary:
      out << (move.arg != 0 ? " right" : " left");
      break;
    case MoveKind::SplitZone:
      out << " at " << move.arg << " -> " << core::to_string(move.mode);
      break;
    case MoveKind::MergeZones:
      out << "+z" << move.zone + 1;
      break;
    case MoveKind::SwapModes:
      out << "<->z" << move.arg;
      break;
  }
  return out.str();
}

std::optional<Candidate> apply_move(const Candidate& candidate, const Move& move) {
  auto zones = candidate.zones();
  const auto nz = static_cast<std::uint32_t>(zones.size());
  switch (move.kind) {
    case MoveKind::FlipMode: {
      if (move.zone >= nz || zones[move.zone].mode == move.mode)
        return std::nullopt;
      zones[move.zone].mode = move.mode;
      break;
    }
    case MoveKind::MoveBoundary: {
      // Boundary b sits between zones b-1 and b; arg=1 grows the left
      // zone into the right, arg=0 the other way. The shrinking zone
      // must keep at least one pod.
      const std::uint32_t b = move.zone;
      if (b == 0 || b >= nz) return std::nullopt;
      if (move.arg != 0) {
        if (zones[b].end - zones[b].begin < 2) return std::nullopt;
        ++zones[b - 1].end;
        ++zones[b].begin;
      } else {
        if (zones[b - 1].end - zones[b - 1].begin < 2) return std::nullopt;
        --zones[b - 1].end;
        --zones[b].begin;
      }
      break;
    }
    case MoveKind::SplitZone: {
      if (move.zone >= nz) return std::nullopt;
      Zone& z = zones[move.zone];
      const std::uint32_t size = z.end - z.begin;
      if (move.arg == 0 || move.arg >= size) return std::nullopt;
      if (move.mode == z.mode) return std::nullopt;  // would merge right back
      const Zone right{z.begin + move.arg, z.end, move.mode};
      z.end = right.begin;
      zones.insert(zones.begin() + move.zone + 1, right);
      break;
    }
    case MoveKind::MergeZones: {
      if (move.zone + 1 >= nz) return std::nullopt;
      Zone& left = zones[move.zone];
      const Zone& right = zones[move.zone + 1];
      // Larger zone's mode wins; ties go left.
      if (right.end - right.begin > left.end - left.begin)
        left.mode = right.mode;
      left.end = right.end;
      zones.erase(zones.begin() + move.zone + 1);
      break;
    }
    case MoveKind::SwapModes: {
      if (move.zone >= nz || move.arg >= nz || move.zone == move.arg)
        return std::nullopt;
      if (zones[move.zone].mode == zones[move.arg].mode) return std::nullopt;
      std::swap(zones[move.zone].mode, zones[move.arg].mode);
      break;
    }
  }
  return Candidate::from_zones(candidate.pods(), std::move(zones));
}

std::optional<Move> propose_move(const Candidate& candidate, util::Rng& rng) {
  const auto& zones = candidate.zones();
  const auto nz = static_cast<std::uint32_t>(zones.size());
  Move move;
  move.kind = static_cast<MoveKind>(rng.below(5));
  switch (move.kind) {
    case MoveKind::FlipMode: {
      move.zone = static_cast<std::uint32_t>(rng.below(nz));
      move.mode = other_modes(zones[move.zone].mode)[rng.below(2)];
      break;
    }
    case MoveKind::MoveBoundary: {
      if (nz < 2) return std::nullopt;
      move.zone = 1 + static_cast<std::uint32_t>(rng.below(nz - 1));
      move.arg = static_cast<std::uint32_t>(rng.below(2));
      break;
    }
    case MoveKind::SplitZone: {
      move.zone = static_cast<std::uint32_t>(rng.below(nz));
      const Zone& z = zones[move.zone];
      const std::uint32_t size = z.end - z.begin;
      if (size < 2) return std::nullopt;
      move.arg = 1 + static_cast<std::uint32_t>(rng.below(size - 1));
      move.mode = other_modes(z.mode)[rng.below(2)];
      break;
    }
    case MoveKind::MergeZones: {
      if (nz < 2) return std::nullopt;
      move.zone = static_cast<std::uint32_t>(rng.below(nz - 1));
      break;
    }
    case MoveKind::SwapModes: {
      if (nz < 2) return std::nullopt;
      move.zone = static_cast<std::uint32_t>(rng.below(nz));
      auto partner = static_cast<std::uint32_t>(rng.below(nz - 1));
      if (partner >= move.zone) ++partner;
      move.arg = partner;
      if (zones[move.zone].mode == zones[move.arg].mode) return std::nullopt;
      break;
    }
  }
  return move;
}

SearchResult search(const core::FlatTreeNetwork& net, const WorkloadMix& mix,
                    const SearchOptions& options) {
  SearchResult result;
  const std::uint32_t pods = net.params().pods();

  // Uniform baselines, cold and certified. They double as the search's
  // reference point: the walk starts from the best of them.
  for (core::Mode mode :
       {core::Mode::Clos, core::Mode::GlobalRandom, core::Mode::LocalRandom}) {
    check::Report report;
    UniformScore u;
    u.mode = mode;
    u.score = score_cold_certified(net, Candidate::uniform(pods, mode), mix,
                                   &report);
    u.certified = report.ok();
    result.uniforms.push_back(u);
  }
  double uniform_best = result.uniforms.front().score.objective;
  result.best_uniform = result.uniforms.front().mode;
  for (const UniformScore& u : result.uniforms) {
    if (u.score.objective > uniform_best) {
      uniform_best = u.score.objective;
      result.best_uniform = u.mode;
    }
  }

  Candidate current = Candidate::uniform(pods, result.best_uniform);
  Score current_score = score_candidate(net, current, mix);
  c_scored.inc();
  result.best = current;
  double best_objective = current_score.objective;

  // Temperatures are fractions of the best uniform objective, so the
  // same schedule works at any plant size or mix scale.
  const double scale = std::max(std::abs(uniform_best), 1e-12);
  for (std::uint32_t iter = 0; iter < options.iterations; ++iter) {
    Rng rng = Rng::substream(options.seed, kMoveStream + iter);
    const double temperature =
        options.initial_temperature * scale * std::pow(options.cooling, iter);
    std::optional<Move> move = propose_move(current, rng);
    std::optional<Candidate> next =
        move ? apply_move(current, *move) : std::nullopt;
    if (!next) {
      ++result.skipped;
      c_skipped.inc();
      result.trajectory.push_back(TrajectoryPoint{
          iter, temperature, current_score.objective, best_objective});
      continue;
    }
    const Score next_score = score_candidate(net, *next, mix);
    c_scored.inc();
    const double delta = next_score.objective - current_score.objective;
    const bool accept =
        delta >= 0.0 ||
        (temperature > 0.0 && rng.uniform() < std::exp(delta / temperature));
    if (accept) {
      current = std::move(*next);
      current_score = next_score;
      ++result.accepted;
      c_accepted.inc();
      result.accepted_moves.push_back(
          AcceptedMove{iter, *move, next_score.objective});
      if (next_score.objective > best_objective) {
        result.best = current;
        best_objective = next_score.objective;
      }
    } else {
      ++result.rejected;
      c_rejected.inc();
    }
    result.trajectory.push_back(TrajectoryPoint{
        iter, temperature, current_score.objective, best_objective});
  }

  // The winner's reported number comes from a cold rebuild that runs the
  // full validate + certify battery.
  check::Report report;
  result.best_cold = score_cold_certified(net, result.best, mix, &report);
  result.certified = report.ok();
  c_rescore.inc();
  return result;
}

}  // namespace flattree::design
