#include "util/stats.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace flattree::util {

Distribution::Distribution(std::vector<double> samples) : sorted_(std::move(samples)) {
  if (sorted_.empty()) throw std::invalid_argument("Distribution: empty sample set");
  std::sort(sorted_.begin(), sorted_.end());
}

double Distribution::quantile(double q) const {
  if (q <= 0.0) return sorted_.front();
  if (q >= 1.0) return sorted_.back();
  double pos = q * static_cast<double>(sorted_.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

double Distribution::mean() const {
  return std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
         static_cast<double>(sorted_.size());
}

}  // namespace flattree::util
