#pragma once
// Small descriptive-statistics helpers used by metrics and benches.

#include <cstddef>
#include <vector>

namespace flattree::util {

/// Sorted-sample wrapper answering quantile queries (linear
/// interpolation between order statistics).
class Distribution {
 public:
  explicit Distribution(std::vector<double> samples);
  double quantile(double q) const;  ///< q in [0,1]
  double median() const { return quantile(0.5); }
  double mean() const;

 private:
  std::vector<double> sorted_;
};

}  // namespace flattree::util
