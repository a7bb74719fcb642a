#include "power/decoder_model.h"

#include <cmath>

#include "util/check.h"

namespace ps360::power {

namespace {

// time(n) = kTimeFloorS + (kTime1DecS - kTimeFloorS) * n^(-kTimeExponent)
constexpr double kTime1DecS = 1.3;
constexpr double kTimeFloorS = 0.47;
constexpr double kTimeExponent = 1.2;
static_assert(kTimeFloorS > 0.0 && kTimeFloorS < kTime1DecS);

// power(n) = kPower1DecMw * n^kPowerExponent
constexpr double kPower1DecMw = 241.0;
constexpr double kPowerExponent = 0.57;

// The single-decoder Ptile pipeline (decodes one large tile).
constexpr double kPtileTimeS = 0.24;
constexpr double kPtilePowerMw = 287.0;

// Active playback-pipeline base power while decoding (buffers, codec
// service, wakelocks) — charged per second of decode in the energy view.
constexpr double kPipelineBaseMw = 350.0;

// Render (view generation) energy per one-second segment, mJ. Matches the
// Pixel 3 P_r(30) of Table I.
constexpr double kRenderMjPerSegment = 183.5;

static_assert(kPower1DecMw > 0.0 && kPtileTimeS > 0.0 && kPtilePowerMw > 0.0 &&
              kPipelineBaseMw >= 0.0);

}  // namespace

double decode_time_s(std::size_t n_decoders) {
  PS360_CHECK(n_decoders >= 1);
  const double n = static_cast<double>(n_decoders);
  return kTimeFloorS + (kTime1DecS - kTimeFloorS) * std::pow(n, -kTimeExponent);
}

double decode_power_mw(std::size_t n_decoders) {
  PS360_CHECK(n_decoders >= 1);
  return kPower1DecMw * std::pow(static_cast<double>(n_decoders), kPowerExponent);
}

double decode_energy_mj(std::size_t n_decoders) {
  return (kPipelineBaseMw + decode_power_mw(n_decoders)) * decode_time_s(n_decoders);
}

double processing_energy_mj(std::size_t n_decoders) {
  return decode_energy_mj(n_decoders) + kRenderMjPerSegment;
}

double ptile_decode_time_s() { return kPtileTimeS; }

double ptile_decode_power_mw() { return kPtilePowerMw; }

double ptile_decode_energy_mj() {
  return (kPipelineBaseMw + kPtilePowerMw) * kPtileTimeS;
}

double ptile_processing_energy_mj() {
  return ptile_decode_energy_mj() + kRenderMjPerSegment;
}

std::size_t best_decoder_count(std::size_t max_n) {
  PS360_CHECK(max_n >= 1);
  std::size_t best = 1;
  double best_energy = processing_energy_mj(1);
  for (std::size_t n = 2; n <= max_n; ++n) {
    const double e = processing_energy_mj(n);
    if (e < best_energy) {
      best_energy = e;
      best = n;
    }
  }
  return best;
}

}  // namespace ps360::power
