#include "util/rng.hpp"

#include <cmath>

namespace flattree::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t value) { return splitmix64(value); }

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : state_) s = splitmix64(seed);
  // Guard against the all-zero state, which xoshiro cannot escape.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) state_[0] = 1;
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Lemire's method: multiply into 128 bits, reject the biased low band.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t t = (0 - bound) % bound;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform() {
  // 53 uniform bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double rate) {
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

bool Rng::chance(double p) { return uniform() < p; }

Rng Rng::substream(std::uint64_t seed, std::uint64_t stream) {
  return Rng(mix64(seed ^ mix64(0x9e3779b97f4a7c15ULL * (stream + 1))));
}

}  // namespace flattree::util
