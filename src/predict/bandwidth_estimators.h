// Bandwidth estimation (Section IV-C) and its alternatives.
//
// The paper predicts the next segments' throughput as the harmonic mean of
// the last few segments' download rates — the harmonic mean damps transient
// spikes that would otherwise cause over-fetching — and points at ARBITER+ /
// LinkForecast [25, 26] for fancier options. These implementations make the
// choice measurable:
//
//   * kLast     — the most recent observation (jumpy),
//   * kMean     — sliding arithmetic mean (over-reacts to spikes),
//   * kEwma     — exponentially weighted moving average,
//   * kHarmonic — the paper's choice.
//
// All share one interface so the session simulator and the ablation bench
// can swap them.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "util/units.h"

namespace ps360::predict {

enum class BandwidthEstimatorKind { kLast = 0, kMean = 1, kEwma = 2, kHarmonic = 3 };
inline constexpr std::size_t kBandwidthEstimatorKindCount = 4;

const std::string& bandwidth_estimator_name(BandwidthEstimatorKind kind);

class BandwidthEstimator {
 public:
  virtual ~BandwidthEstimator() = default;
  // Record an observed download rate (> 0).
  virtual void observe(util::BytesPerSec rate) = 0;
  // Current estimate (bytes/second, > 0).
  virtual double estimate() const = 0;
};

// Factory. `window` applies to kMean/kHarmonic; `ewma_alpha` to kEwma.
std::unique_ptr<BandwidthEstimator> make_bandwidth_estimator(
    BandwidthEstimatorKind kind, std::size_t window = 5,
    util::BytesPerSec initial_rate = util::BytesPerSec(500e3),
    double ewma_alpha = 0.4);

}  // namespace ps360::predict
