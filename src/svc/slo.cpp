#include "svc/slo.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "check/certify.hpp"
#include "obs/metrics.hpp"

namespace flattree::svc {

namespace {

obs::Counter c_budgeted("svc.slo.budgeted_solves");
obs::Counter c_truncated("svc.slo.truncated_solves");

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

std::uint64_t budget_iterations(const SloPolicy& policy, double deadline_ms) {
  return budget_for(deadline_ms, policy.design_iterations_per_ms,
                    policy.min_design_iterations, "budget_iterations");
}

SloSolve solve_with_budget(const graph::Graph& g,
                           const std::vector<mcf::Commodity>& commodities,
                           double epsilon, std::uint64_t budget) {
  SloSolve out;
  out.budget = budget;
  if (commodities.empty()) {
    // Degenerate zero solve: nothing to route, vacuously certified.
    out.certified = true;
    return out;
  }

  mcf::McfOptions opt;
  opt.epsilon = epsilon;
  opt.allow_unreachable = true;
  opt.compute_upper_bound = true;
  opt.max_augmentations = budget;
  out.result = mcf::max_concurrent_flow(g, commodities, opt);

  check::CertifyOptions copt;
  copt.epsilon = epsilon;
  out.certified = check::certify_served(g, commodities, out.result, copt).ok();

  if (budget > 0) c_budgeted.inc();
  if (out.result.truncated) c_truncated.inc();
  return out;
}

}  // namespace flattree::svc
