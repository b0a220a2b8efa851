#include "svc/slo.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace flattree::svc {

namespace {

/// deadline_ms * rate, saturated, floored at `min`; 0 deadline = unlimited.
std::uint64_t budget_for(double deadline_ms, double rate, std::uint64_t min,
                         const char* what) {
  // Negative or NaN rates would cast to uint64_t with undefined behaviour.
  if (!(rate > 0.0) || !std::isfinite(rate))
    throw std::invalid_argument(std::string(what) + ": rate must be finite and positive");
  if (deadline_ms <= 0.0) return 0;  // no deadline: unlimited
  double raw = deadline_ms * rate;
  // Saturate instead of overflowing for absurd deadlines.
  if (raw >= 9.0e18) return std::uint64_t{9000000000000000000ull};
  std::uint64_t budget = static_cast<std::uint64_t>(raw);
  return budget < min ? min : budget;
}

}  // namespace

std::uint64_t budget_augmentations(const SloPolicy& policy, double deadline_ms) {
  return budget_for(deadline_ms, policy.augmentations_per_ms, policy.min_augmentations,
                    "budget_augmentations");
}

std::uint64_t budget_iterations(double deadline_ms) {
  return budget_for(deadline_ms, kDesignIterationsPerMs, kMinDesignIterations,
                    "budget_iterations");
}

}  // namespace flattree::svc
