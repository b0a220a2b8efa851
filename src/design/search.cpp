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

// Fixed annealing schedule: T_i = kInitialTemperature * scale *
// kCooling^i, where scale is the best uniform objective.
constexpr double kInitialTemperature = 0.05;
constexpr double kCooling = 0.92;

obs::Counter c_scored("design.candidates_scored");
obs::Counter c_accepted("design.moves_accepted");
obs::Counter c_rejected("design.moves_rejected");
obs::Counter c_skipped("design.moves_skipped");

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

const UniformScore& SearchResult::best_uniform_score() const {
  return *std::find_if(uniforms.begin(), uniforms.end(),
                       [&](const UniformScore& u) { return u.mode == best_uniform; });
}

SearchResult search(const core::FlatTreeNetwork& net, const WorkloadMix& mix,
                    const SearchOptions& options) {
  SearchResult result;
  const std::uint32_t pods = net.params().pods();
  auto score = [&](const Candidate& candidate) {
    const Score s = score_layout(net, candidate, mix);
    c_scored.inc();
    if (s.certified) ++result.certified_solves;
    return s;
  };

  // Uniform baselines. They double as the search's reference point: the
  // walk starts from the best of them, with its stored score.
  for (core::Mode mode :
       {core::Mode::Clos, core::Mode::GlobalRandom, core::Mode::LocalRandom})
    result.uniforms.push_back(UniformScore{mode, score(Candidate::uniform(pods, mode))});
  Score current_score = result.uniforms.front().score;
  result.best_uniform = result.uniforms.front().mode;
  for (const UniformScore& u : result.uniforms) {
    if (u.score.objective > current_score.objective) {
      current_score = u.score;
      result.best_uniform = u.mode;
    }
  }

  Candidate current = Candidate::uniform(pods, result.best_uniform);
  result.best = current;
  result.best_score = current_score;

  // Temperatures are fractions of the best uniform objective, so the
  // same schedule works at any plant size or mix scale.
  const double scale = std::max(std::abs(current_score.objective), 1e-12);
  for (std::uint32_t iter = 0; iter < options.iterations; ++iter) {
    Rng rng = Rng::substream(options.seed, kMoveStream + iter);
    const double temperature =
        kInitialTemperature * scale * std::pow(kCooling, iter);
    std::optional<Move> move = propose_move(current, rng);
    std::optional<Candidate> next =
        move ? apply_move(current, *move) : std::nullopt;
    if (!next) {
      ++result.skipped;
      c_skipped.inc();
      result.trajectory.push_back(TrajectoryPoint{
          iter, temperature, current_score.objective, result.best_score.objective});
      continue;
    }
    const Score next_score = score(*next);
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
      if (next_score.objective > result.best_score.objective) {
        result.best = current;
        result.best_score = next_score;
      }
    } else {
      ++result.rejected;
      c_rejected.inc();
    }
    result.trajectory.push_back(TrajectoryPoint{
        iter, temperature, current_score.objective, result.best_score.objective});
  }
  return result;
}

}  // namespace flattree::design
