#include "predict/bandwidth_estimators.h"

#include <array>
#include <deque>

#include "util/check.h"
#include "util/stats.h"

namespace ps360::predict {

const std::string& bandwidth_estimator_name(BandwidthEstimatorKind kind) {
  static const std::array<std::string, kBandwidthEstimatorKindCount> names = {
      "last", "mean", "ewma", "harmonic"};
  const auto index = static_cast<std::size_t>(kind);
  PS360_CHECK(index < names.size());
  return names[index];
}

namespace {

class LastEstimator final : public BandwidthEstimator {
 public:
  explicit LastEstimator(double initial) : value_(initial) {}
  void observe(util::BytesPerSec rate) override {
    PS360_CHECK(rate.value() > 0.0);
    value_ = rate.value();
  }
  double estimate() const override { return value_; }

 private:
  double value_;
};

class MeanEstimator final : public BandwidthEstimator {
 public:
  MeanEstimator(std::size_t window, double initial)
      : window_(window), initial_(initial) {
    PS360_CHECK(window >= 1);
  }
  void observe(util::BytesPerSec rate) override {
    PS360_CHECK(rate.value() > 0.0);
    history_.push_back(rate.value());
    if (history_.size() > window_) history_.pop_front();
  }
  double estimate() const override {
    if (history_.empty()) return initial_;
    double sum = 0.0;
    for (double r : history_) sum += r;
    return sum / static_cast<double>(history_.size());
  }

 private:
  std::size_t window_;
  double initial_;
  std::deque<double> history_;
};

class EwmaEstimator final : public BandwidthEstimator {
 public:
  EwmaEstimator(double alpha, double initial) : alpha_(alpha), value_(initial) {
    PS360_CHECK(alpha > 0.0 && alpha <= 1.0);
  }
  void observe(util::BytesPerSec rate) override {
    const double bytes_per_s = rate.value();
    PS360_CHECK(bytes_per_s > 0.0);
    value_ = seeded_ ? alpha_ * bytes_per_s + (1.0 - alpha_) * value_ : bytes_per_s;
    seeded_ = true;
  }
  double estimate() const override { return value_; }

 private:
  double alpha_;
  double value_;
  bool seeded_ = false;
};

class HarmonicEstimator final : public BandwidthEstimator {
 public:
  HarmonicEstimator(std::size_t window, double initial)
      : window_(window), initial_(initial) {
    PS360_CHECK(window >= 1);
  }
  void observe(util::BytesPerSec rate) override {
    const double bytes_per_s = rate.value();
    // A zero (or negative) rate would poison the harmonic mean: 1/rate is
    // infinite or sign-flipped, and the estimate never recovers within the
    // window. Reject loudly instead.
    PS360_CHECK_MSG(bytes_per_s > 0.0, "observed download rate must be > 0 bytes/s");
    history_.push_back(bytes_per_s);
    if (history_.size() > window_) history_.pop_front();
  }
  double estimate() const override {
    if (history_.empty()) return initial_;
    double reciprocal_sum = 0.0;
    for (double rate : history_) reciprocal_sum += 1.0 / rate;
    return static_cast<double>(history_.size()) / reciprocal_sum;
  }

 private:
  std::size_t window_;
  double initial_;
  std::deque<double> history_;
};

}  // namespace

std::unique_ptr<BandwidthEstimator> make_bandwidth_estimator(
    BandwidthEstimatorKind kind, std::size_t window,
    util::BytesPerSec initial_rate, double ewma_alpha) {
  const double initial_bytes_per_s = initial_rate.value();
  PS360_CHECK(initial_bytes_per_s > 0.0);
  switch (kind) {
    case BandwidthEstimatorKind::kLast:
      return std::make_unique<LastEstimator>(initial_bytes_per_s);
    case BandwidthEstimatorKind::kMean:
      return std::make_unique<MeanEstimator>(window, initial_bytes_per_s);
    case BandwidthEstimatorKind::kEwma:
      return std::make_unique<EwmaEstimator>(ewma_alpha, initial_bytes_per_s);
    case BandwidthEstimatorKind::kHarmonic:
      return std::make_unique<HarmonicEstimator>(window, initial_bytes_per_s);
  }
  throw std::invalid_argument("unknown bandwidth estimator kind");
}

}  // namespace ps360::predict
