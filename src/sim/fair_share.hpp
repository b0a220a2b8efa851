#pragma once
// Max-min fair rate allocation by progressive filling.
//
// The flow-level simulator models TCP-like bandwidth sharing: all flows'
// rates grow together until some resource (link direction or server NIC)
// saturates; flows crossing it freeze, and the rest keep growing. This is
// the water-filling allocation, unique for max-min fairness.

#include <cstdint>
#include <vector>

namespace flattree::sim {

/// Resources with capacities and the resource set each flow occupies.
struct FairShareProblem {
  /// Resource capacities (> 0).
  std::vector<double> capacity;
  /// For each flow, the resources it occupies (each must be non-empty;
  /// duplicates within one flow are allowed and count once).
  std::vector<std::vector<std::uint32_t>> flow_resources;
};

/// Returns the max-min fair rate per flow. Throws std::invalid_argument on
/// empty resource lists or non-positive capacities.
std::vector<double> max_min_rates(const FairShareProblem& problem);

}  // namespace flattree::sim
