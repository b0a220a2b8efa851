#include "svc/slo.hpp"

namespace flattree::svc {

namespace {

// A negative or NaN rate would cast to uint64_t with undefined behaviour.
static_assert(kAugmentationsPerMs > 0.0 && kDesignIterationsPerMs > 0.0,
              "SLO rates must be positive");

/// deadline_ms * rate, saturated, floored at `min`; 0 deadline = unlimited.
std::uint64_t budget_for(double deadline_ms, double rate, std::uint64_t min) {
  if (deadline_ms <= 0.0) return 0;  // no deadline: unlimited
  double raw = deadline_ms * rate;
  // Saturate instead of overflowing for absurd deadlines.
  if (raw >= 9.0e18) return std::uint64_t{9000000000000000000ull};
  std::uint64_t budget = static_cast<std::uint64_t>(raw);
  return budget < min ? min : budget;
}

}  // namespace

std::uint64_t budget_augmentations(double deadline_ms) {
  return budget_for(deadline_ms, kAugmentationsPerMs, kMinAugmentations);
}

std::uint64_t budget_iterations(double deadline_ms) {
  return budget_for(deadline_ms, kDesignIterationsPerMs, kMinDesignIterations);
}

}  // namespace flattree::svc
