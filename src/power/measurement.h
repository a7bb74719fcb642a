// The power-measurement and model-fitting pipeline.
//
// The paper derives Table I from Monsoon power-monitor sessions: decode and
// render at several frame rates, difference out the baseline, and fit a
// linear model per state. Without the hardware we simulate the monitor —
// MeasurementSimulator emits noisy (fps, mW) samples whose ground truth is
// the Table I model itself — and fit_linear regenerates the coefficients.
// bench_table1_power reports fitted-vs-published values; tests assert the
// fit recovers the truth within the noise floor.
#pragma once

#include <cstdint>
#include <vector>

#include "power/device_models.h"

namespace ps360::power {

struct PowerSample {
  double fps = 0.0;
  double mw = 0.0;
};

struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;

  double at(double fps) const { return intercept + slope * fps; }
};

// Ordinary least squares y = intercept + slope * x. Requires >= 2 distinct
// x values.
LinearFit fit_linear(const std::vector<PowerSample>& samples);

// The simulated protocol (measurement.cpp) sweeps 15-30 fps in 3 fps steps,
// 20 monitor sessions per operating point, with a 12 mW session-to-session
// spread.
struct MeasurementConfig {
  std::uint64_t seed = 42;
};

class MeasurementSimulator {
 public:
  explicit MeasurementSimulator(MeasurementConfig config = {});

  // Noisy decode-power samples for a device/profile across the fps sweep.
  std::vector<PowerSample> measure_decode(Device device, DecodeProfile profile) const;

  // Noisy render-power samples across the fps sweep.
  std::vector<PowerSample> measure_render(Device device) const;

  // Noisy radio-power samples (constant in f; sampled at fps = 0).
  std::vector<PowerSample> measure_transmit(Device device) const;

 private:
  std::vector<PowerSample> sample_linear(double base, double slope,
                                         std::uint64_t stream) const;

  MeasurementConfig config_;
};

}  // namespace ps360::power
