#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps360::util {

double mean(const std::vector<double>& values) {
  PS360_CHECK(!values.empty());
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double variance(const std::vector<double>& values) {
  PS360_CHECK(values.size() >= 2);
  const double m = mean(values);
  double sum = 0.0;
  for (double v : values) sum += (v - m) * (v - m);
  return sum / static_cast<double>(values.size() - 1);
}

double stddev(const std::vector<double>& values) { return std::sqrt(variance(values)); }

double percentile(std::vector<double> values, double p) {
  PS360_CHECK(!values.empty());
  PS360_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(const std::vector<double>& values) { return percentile(values, 50.0); }

double pearson_correlation(const std::vector<double>& a, const std::vector<double>& b) {
  PS360_CHECK(a.size() == b.size());
  PS360_CHECK(a.size() >= 2);
  const double ma = mean(a);
  const double mb = mean(b);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  PS360_CHECK_MSG(va > 0.0 && vb > 0.0, "correlation of a constant series");
  return cov / std::sqrt(va * vb);
}

double rmse(const std::vector<double>& a, const std::vector<double>& b) {
  PS360_CHECK(a.size() == b.size());
  PS360_CHECK(!a.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

double fraction_above(const std::vector<double>& values, double threshold) {
  PS360_CHECK(!values.empty());
  std::size_t n = 0;
  for (double v : values)
    if (v > threshold) ++n;
  return static_cast<double>(n) / static_cast<double>(values.size());
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  PS360_CHECK(!sorted_.empty());
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const {
  PS360_CHECK(q >= 0.0 && q <= 1.0);
  if (sorted_.size() == 1) return sorted_.front();
  const double rank = q * static_cast<double>(sorted_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

}  // namespace ps360::util
