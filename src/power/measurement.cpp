#include "power/measurement.h"

#include <array>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace ps360::power {

namespace {

// Frame rates to sweep, as in the measurement protocol (reduced-rate Ptile
// variants give the low end of the sweep).
constexpr std::array<double, 6> kFpsSweep = {15.0, 18.0, 21.0, 24.0, 27.0, 30.0};
constexpr std::size_t kRepetitions = 20;  // monitor sessions per operating point
constexpr double kNoiseSigmaMw = 12.0;    // Monsoon session-to-session spread
static_assert(kRepetitions >= 1 && kNoiseSigmaMw >= 0.0);

}  // namespace

LinearFit fit_linear(const std::vector<PowerSample>& samples) {
  PS360_CHECK(samples.size() >= 2);
  const double n = static_cast<double>(samples.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (const auto& s : samples) {
    sx += s.fps;
    sy += s.mw;
    sxx += s.fps * s.fps;
    sxy += s.fps * s.mw;
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (denom == 0.0) {
    // All x identical: fit a constant (slope zero); used for P_t.
    fit.slope = 0.0;
    fit.intercept = sy / n;
  } else {
    fit.slope = (n * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / n;
  }
  // Coefficient of determination.
  const double mean_y = sy / n;
  double ss_res = 0.0, ss_tot = 0.0;
  for (const auto& s : samples) {
    const double pred = fit.at(s.fps);
    ss_res += (s.mw - pred) * (s.mw - pred);
    ss_tot += (s.mw - mean_y) * (s.mw - mean_y);
  }
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

std::vector<PowerSample> MeasurementSimulator::sample_linear(
    double base, double slope, std::uint64_t stream) const {
  util::Rng rng(util::derive_seed(seed_, 0x90E77ULL, stream));
  std::vector<PowerSample> samples;
  samples.reserve(kFpsSweep.size() * kRepetitions);
  for (const double fps : kFpsSweep) {
    for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
      const double truth = base + slope * fps;
      samples.push_back(PowerSample{fps, truth + rng.normal(0.0, kNoiseSigmaMw)});
    }
  }
  return samples;
}

std::vector<PowerSample> MeasurementSimulator::measure_decode(
    Device device, DecodeProfile profile) const {
  const auto& model =
      device_model(device).decode[static_cast<std::size_t>(profile)];
  const std::uint64_t stream = 100 + static_cast<std::uint64_t>(device) * 10 +
                               static_cast<std::uint64_t>(profile);
  return sample_linear(model.base_mw, model.slope_mw_per_fps, stream);
}

std::vector<PowerSample> MeasurementSimulator::measure_render(Device device) const {
  const auto& model = device_model(device).render;
  return sample_linear(model.base_mw, model.slope_mw_per_fps,
                       200 + static_cast<std::uint64_t>(device));
}

std::vector<PowerSample> MeasurementSimulator::measure_transmit(Device device) const {
  util::Rng rng(util::derive_seed(seed_, 0x90E77ULL,
                                  300 + static_cast<std::uint64_t>(device)));
  // The wget-daemon experiment: the radio draws a constant power; sessions
  // differ by monitor noise. The published +- term in Table I is this spread.
  std::vector<PowerSample> samples;
  samples.reserve(kRepetitions * kFpsSweep.size());
  const double truth = device_model(device).transmit_mw;
  for (std::size_t rep = 0; rep < kRepetitions * kFpsSweep.size(); ++rep)
    samples.push_back(PowerSample{0.0, truth + rng.normal(0.0, kNoiseSigmaMw * 2.0)});
  return samples;
}

}  // namespace ps360::power
