#include <algorithm>
#include <cmath>

#include "perfbench.hpp"

namespace perfbench {

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n >= 1000) {
    // Nearest rank of p99 leaves n - ceil(0.99 n) >= 10 samples beyond it.
    const std::size_t rank = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
    t.value = v[rank - 1];
    t.pct = 99.0;
  } else if (n >= 20) {
    t.value = v[n - 11];  // exactly ten samples beyond
    t.pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    // No percentile at or above the median has ten samples beyond it.
    t.value = v.back();
    t.pct = 100.0;
  }
  return t;
}

double rel_iqr(const std::vector<double>& v) {
  const double m = median(v);
  if (v.size() < 2 || m == 0.0) return 0.0;
  return (quantile(v, 0.75) - quantile(v, 0.25)) / m;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = Metric{value, unit};
}

}  // namespace perfbench
