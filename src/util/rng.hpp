#pragma once
// Deterministic pseudo-random number generation.
//
// All randomized components of the library (random-graph construction,
// workload placement, ECMP hashing salt, flow arrival processes) take an
// explicit Rng so experiments are reproducible from a single seed. The
// engine is xoshiro256** seeded via splitmix64 — fast, high quality, and
// stable across platforms (unlike std::mt19937 + std::uniform_int_distribution,
// whose outputs are not portable between standard library implementations).

#include <array>
#include <cstdint>
#include <vector>

namespace flattree::util {

/// xoshiro256** engine with convenience sampling helpers.
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  std::uint64_t operator()();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform();

  /// Exponentially distributed double with the given rate (mean 1/rate).
  double exponential(double rate);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// In-place Fisher-Yates shuffle with portable output.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element index of a non-empty container size.
  std::size_t index(std::size_t size) { return static_cast<std::size_t>(below(size)); }

  /// Deterministic per-task substream: the generator for stream index `i`
  /// of experiment seed `seed`, a pure function of (seed, stream) —
  /// parallel loops seed chunk i with
  /// `Rng::substream(seed, i)` so results are identical at any thread count
  /// and chunk execution order. Decorrelation comes from two splitmix64
  /// avalanche rounds over the (seed, stream) pair.
  static Rng substream(std::uint64_t seed, std::uint64_t stream);

 private:
  std::array<std::uint64_t, 4> state_;
};

/// splitmix64 step; exposed for hashing-style uses (e.g. ECMP flow hashing).
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless 64-bit mix of a value (single splitmix64 round).
std::uint64_t mix64(std::uint64_t value);

}  // namespace flattree::util
