#pragma once
// Small descriptive-statistics helpers used by metrics and benches.

#include <cstddef>
#include <vector>

namespace flattree::util {

/// Percentile of a sample with linear interpolation, p in [0,100].
/// Sorts a copy; for repeated queries use Distribution below.
double percentile(std::vector<double> samples, double p);

/// Sorted-sample wrapper answering repeated quantile queries.
class Distribution {
 public:
  explicit Distribution(std::vector<double> samples);
  std::size_t count() const { return sorted_.size(); }
  double quantile(double q) const;  ///< q in [0,1]
  double median() const { return quantile(0.5); }
  double mean() const;

 private:
  std::vector<double> sorted_;
};

/// True when |a-b| <= tol * max(1, |a|, |b|).
bool approx_equal(double a, double b, double tol = 1e-9);

}  // namespace flattree::util
