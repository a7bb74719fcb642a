#include "video/encoding.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace ps360::video {

EncodingModel::EncodingModel(std::uint64_t seed, EncodingConfig config)
    : seed_(seed), config_(config) {
  PS360_CHECK(std::isfinite(config_.full_frame_mbps_best) &&
              config_.full_frame_mbps_best > 0.0);
  PS360_CHECK(config_.framerate_size_exponent > 0.0 &&
              config_.framerate_size_exponent <= 1.0);
  PS360_CHECK(std::isfinite(config_.size_noise_sigma_log) &&
              config_.size_noise_sigma_log >= 0.0);
  PS360_CHECK(config_.ref_tile_area_fraction > 0.0 &&
              config_.ref_tile_area_fraction < 1.0);
  PS360_CHECK(config_.anchor_tile_count >= 2);
  for (double ratio : config_.fov_size_ratio) {
    // The 1-vs-n tile ratio achievable with a fixed per-tile cost is bounded
    // below by 1/n; the calibration divides by (n*ratio - 1).
    PS360_CHECK_MSG(ratio > 1.0 / static_cast<double>(config_.anchor_tile_count) &&
                        ratio <= 1.0,
                    "Fig. 8 ratio outside the representable range");
  }
}

double EncodingModel::area_rate_mbps(int quality, const ContentFeatures& features) const {
  const double content = config_.content_intercept +
                         config_.content_si_slope * features.si +
                         config_.content_ti_slope * features.ti;
  PS360_ASSERT_MSG(content > 0.0, "content factor must stay positive");
  return config_.full_frame_mbps_best * QualityLadder::rate_factor(quality) * content;
}

double EncodingModel::tile_overhead_mbps(int quality,
                                         const ContentFeatures& features) const {
  // Calibrated at the Fig. 8 anchor: a region of `anchor_tile_count`
  // reference tiles encoded as one tile (size A*r + K) versus as n tiles
  // (size A*r + n*K) must have the published size ratio:
  //   ratio = (A r + K) / (A r + n K)  =>  K = A r (1 - ratio) / (n ratio - 1).
  const double ratio =
      config_.fov_size_ratio[static_cast<std::size_t>(quality - QualityLadder::kMinLevel)];
  const double n = static_cast<double>(config_.anchor_tile_count);
  const double anchor_area = n * config_.ref_tile_area_fraction;
  const double rate = area_rate_mbps(quality, features);
  return anchor_area * rate * (1.0 - ratio) / (n * ratio - 1.0);
}

SizeNoise EncodingModel::size_noise(std::uint64_t noise_key) const {
  if (noise_key == 0 || config_.size_noise_sigma_log == 0.0) return {};
  util::Rng rng(util::derive_seed(seed_, 0x517EULL, noise_key));
  return {rng.lognormal_median(1.0, config_.size_noise_sigma_log)};
}

double EncodingModel::region_bytes(double area_fraction, std::size_t n_tiles,
                                   int quality, const ContentFeatures& features,
                                   double seconds, double frame_rate_ratio,
                                   SizeNoise noise) const {
  return full_rate_bytes(area_fraction, n_tiles, quality, features, seconds) *
         frame_size_factor(frame_rate_ratio) * noise.factor;
}

double EncodingModel::tiled_bytes(const std::vector<double>& tile_area_fractions,
                                  int quality, const ContentFeatures& features,
                                  double seconds, double frame_rate_ratio,
                                  SizeNoise noise) const {
  return tiled_full_rate_bytes(tile_area_fractions, quality, features, seconds) *
         frame_size_factor(frame_rate_ratio) * noise.factor;
}

double EncodingModel::full_rate_bytes(double area_fraction, std::size_t n_tiles,
                                      int quality, const ContentFeatures& features,
                                      double seconds) const {
  PS360_CHECK(area_fraction > 0.0 && area_fraction <= 1.0 + 1e-9);
  PS360_CHECK(n_tiles >= 1);
  PS360_CHECK(seconds > 0.0);
  const double rate = area_rate_mbps(quality, features);
  const double mbps =
      area_fraction * rate +
      static_cast<double>(n_tiles) * tile_overhead_mbps(quality, features);
  return mbps * 1e6 / 8.0 * seconds;
}

double EncodingModel::tiled_full_rate_bytes(const std::vector<double>& tile_area_fractions,
                                            int quality, const ContentFeatures& features,
                                            double seconds) const {
  PS360_CHECK(!tile_area_fractions.empty());
  double area = 0.0;
  for (double a : tile_area_fractions) {
    PS360_CHECK(a > 0.0 && a <= 1.0 + 1e-9);
    area += a;
  }
  return full_rate_bytes(std::min(area, 1.0), tile_area_fractions.size(), quality,
                         features, seconds);
}

double EncodingModel::frame_size_factor(double frame_rate_ratio) const {
  PS360_CHECK(frame_rate_ratio > 0.0 && frame_rate_ratio <= 1.0);
  return std::pow(frame_rate_ratio, config_.framerate_size_exponent);
}

double EncodingModel::fov_bitrate_mbps(int quality, const ContentFeatures& features) const {
  return config_.fov_area_fraction * area_rate_mbps(quality, features);
}


}  // namespace ps360::video
