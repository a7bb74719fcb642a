// Descriptive statistics used throughout the evaluation pipeline: CDFs for
// Fig. 8, Pearson correlation for the QoE fit quality (Table II), percentile
// summaries for traces and fleets.
#pragma once

#include <cstddef>
#include <vector>

namespace ps360::util {

// Arithmetic mean; requires non-empty input.
double mean(const std::vector<double>& values);

// Unbiased sample variance (n-1 denominator); requires >= 2 values.
double variance(const std::vector<double>& values);

// Sample standard deviation.
double stddev(const std::vector<double>& values);

// Linear-interpolated percentile, p in [0, 100]; requires non-empty input.
// Does not assume sorted input.
double percentile(std::vector<double> values, double p);

// Median — percentile(values, 50).
double median(const std::vector<double>& values);

// Pearson correlation coefficient between two equal-length series with
// non-zero variance each.
double pearson_correlation(const std::vector<double>& a, const std::vector<double>& b);

// Root-mean-square error between two equal-length series.
double rmse(const std::vector<double>& a, const std::vector<double>& b);

// Fraction of values strictly greater than the threshold.
double fraction_above(const std::vector<double>& values, double threshold);

// Empirical CDF: sorted samples with evaluation helpers. Used to print the
// Fig. 8 size-ratio distributions.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  std::size_t size() const { return sorted_.size(); }

  // P(X <= x).
  double at(double x) const;

  // Inverse CDF (quantile), q in [0, 1].
  double quantile(double q) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace ps360::util
