#include "core/wiring.hpp"

#include <stdexcept>

namespace flattree::core {

const char* to_string(WiringPattern pattern) {
  switch (pattern) {
    case WiringPattern::Pattern1: return "pattern1";
    case WiringPattern::Pattern2: return "pattern2";
    case WiringPattern::Auto: return "auto";
  }
  return "?";
}

const char* to_string(PodChain chain) {
  switch (chain) {
    case PodChain::Ring: return "ring";
    case PodChain::Linear: return "linear";
  }
  return "?";
}

bool pattern_degenerate(WiringPattern pattern, std::uint32_t m, std::uint32_t group_size) {
  if (pattern == WiringPattern::Auto)
    throw std::invalid_argument("pattern_degenerate: resolve Auto first");
  std::uint32_t step = pattern == WiringPattern::Pattern1 ? m : m + 1;
  return step % group_size == 0;
}

namespace {
std::uint32_t rotation_step(WiringPattern pattern, std::uint32_t m) {
  return pattern == WiringPattern::Pattern1 ? m : m + 1;
}

std::uint32_t gcd32(std::uint32_t a, std::uint32_t b) {
  while (b != 0) {
    std::uint32_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}
}  // namespace

bool pattern_server_uniform(WiringPattern pattern, std::uint32_t m,
                            std::uint32_t group_size) {
  if (pattern == WiringPattern::Auto)
    throw std::invalid_argument("pattern_server_uniform: resolve Auto first");
  if (m == 0) return true;  // no blade B connectors at all
  std::uint32_t c = gcd32(rotation_step(pattern, m) % group_size, group_size);
  if (c == 0) c = group_size;  // step == 0 mod group (degenerate)
  return m % c == 0;
}

WiringPattern resolve_pattern(WiringPattern pattern, std::uint32_t k, std::uint32_t m,
                              std::uint32_t group_size) {
  if (pattern != WiringPattern::Auto) return pattern;
  WiringPattern preferred =
      k % 4 == 0 ? WiringPattern::Pattern2 : WiringPattern::Pattern1;
  WiringPattern other =
      preferred == WiringPattern::Pattern2 ? WiringPattern::Pattern1 : WiringPattern::Pattern2;
  // The paper asserts Property 1 (uniform server spread over cores) for
  // its patterns; honor the paper's preference only when the preferred
  // pattern actually delivers it for this (m, h/r), else fall back.
  // Pattern 1 is always server-uniform and non-degenerate for m > 0, so a
  // sound choice always exists.
  if (m == 0) return preferred;
  if (!pattern_server_uniform(preferred, m, group_size) ||
      pattern_degenerate(preferred, m, group_size)) {
    if (pattern_server_uniform(other, m, group_size) &&
        !pattern_degenerate(other, m, group_size))
      return other;
  }
  return preferred;
}

std::uint32_t pattern_offset(WiringPattern pattern, std::uint32_t p, std::uint32_t m,
                             std::uint32_t group_size) {
  if (pattern == WiringPattern::Auto)
    throw std::invalid_argument("pattern_offset: resolve Auto first");
  std::uint64_t step = pattern == WiringPattern::Pattern1 ? m : m + 1;
  return static_cast<std::uint32_t>((static_cast<std::uint64_t>(p) * step) % group_size);
}

CoreAssignment assign_cores(WiringPattern pattern, std::uint32_t p, std::uint32_t j,
                            std::uint32_t m, std::uint32_t n, std::uint32_t group_size) {
  if (m + n > group_size)
    throw std::invalid_argument("assign_cores: m + n exceeds h/r");
  std::uint32_t offset = pattern_offset(pattern, p, m, group_size);
  std::uint32_t base = j * group_size;
  auto core_at = [&](std::uint32_t slot) { return base + (offset + slot) % group_size; };

  CoreAssignment a;
  a.core_of_blade_b.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) a.core_of_blade_b.push_back(core_at(i));
  a.core_of_blade_a.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) a.core_of_blade_a.push_back(core_at(m + i));
  a.core_of_agg.reserve(group_size - m - n);
  for (std::uint32_t t = 0; t < group_size - m - n; ++t)
    a.core_of_agg.push_back(core_at(m + n + t));
  return a;
}

std::uint32_t side_peer_column(std::uint32_t i, std::uint32_t j, std::uint32_t w) {
  if (w == 0) throw std::invalid_argument("side_peer_column: w must be positive");
  if (j >= w) throw std::invalid_argument("side_peer_column: column out of range");
  // (w - 1 - j + i) mod w, computed without underflow.
  return static_cast<std::uint32_t>((static_cast<std::uint64_t>(w) - 1 - j + i) % w);
}

}  // namespace flattree::core
