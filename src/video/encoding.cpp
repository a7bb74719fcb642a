#include "video/encoding.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace ps360::video {

namespace {

// Full 360° frame bitrate at quality 5 (CRF 18) for reference content
// (SI = 50, TI = 25), in Mbps. Chosen so the evaluation's LTE traces
// (3.9 / 7.8 Mbps average) land where the paper's do: the tile schemes
// sustain mid-to-high quality on trace 1 and are bandwidth-squeezed on
// trace 2 (see DESIGN.md §6).
constexpr double kFullFrameMbpsBest = 14.0;
static_assert(kFullFrameMbpsBest > 0.0);

// Content scaling: multiplier = intercept + si_slope*SI + ti_slope*TI,
// equal to 1.0 at the reference content point and positive for every
// SI, TI >= 0.
constexpr double kContentIntercept = 0.45;
constexpr double kContentSiSlope = 0.0055;
constexpr double kContentTiSlope = 0.022;
static_assert(kContentIntercept > 0.0 && kContentSiSlope >= 0.0 && kContentTiSlope >= 0.0);

// Frame-rate size exponent γ: bytes ∝ (f/fm)^γ.
constexpr double kFramerateSizeExponent = 0.55;
static_assert(kFramerateSizeExponent > 0.0 && kFramerateSizeExponent <= 1.0);

// Log-space std-dev of the per-region lognormal size noise.
constexpr double kSizeNoiseSigmaLog = 0.10;
static_assert(kSizeNoiseSigmaLog >= 0.0);

// FoV area fraction used to express the QoE bitrate `b` (100°x100° FoV).
constexpr double kFovAreaFraction = (100.0 * 100.0) / (360.0 * 180.0);

// The 1-vs-n tile ratio achievable with a fixed per-tile cost is bounded
// below by 1/n; the calibration divides by (n*ratio - 1).
constexpr bool ratios_representable() {
  for (const double ratio : kFovSizeRatio) {
    if (!(ratio > 1.0 / static_cast<double>(kAnchorTileCount) && ratio <= 1.0)) return false;
  }
  return true;
}
static_assert(kAnchorTileCount >= 2);
static_assert(kRefTileAreaFraction > 0.0 && kRefTileAreaFraction < 1.0);
static_assert(ratios_representable(), "Fig. 8 ratio outside the representable range");

}  // namespace

double area_rate_mbps(int quality, const ContentFeatures& features) {
  const double content = kContentIntercept + kContentSiSlope * features.si +
                         kContentTiSlope * features.ti;
  PS360_ASSERT_MSG(content > 0.0, "content factor must stay positive");
  return kFullFrameMbpsBest * QualityLadder::rate_factor(quality) * content;
}

double tile_overhead_mbps(int quality, const ContentFeatures& features) {
  // Calibrated at the Fig. 8 anchor: a region of kAnchorTileCount
  // reference tiles encoded as one tile (size A*r + K) versus as n tiles
  // (size A*r + n*K) must have the published size ratio:
  //   ratio = (A r + K) / (A r + n K)  =>  K = A r (1 - ratio) / (n ratio - 1).
  const double ratio =
      kFovSizeRatio[static_cast<std::size_t>(quality - QualityLadder::kMinLevel)];
  const double n = static_cast<double>(kAnchorTileCount);
  const double anchor_area = n * kRefTileAreaFraction;
  const double rate = area_rate_mbps(quality, features);
  return anchor_area * rate * (1.0 - ratio) / (n * ratio - 1.0);
}

SizeNoise size_noise(std::uint64_t seed, std::uint64_t noise_key) {
  if (noise_key == 0) return {};
  util::Rng rng(util::derive_seed(seed, 0x517EULL, noise_key));
  return {rng.lognormal_median(1.0, kSizeNoiseSigmaLog)};
}

double region_bytes(double area_fraction, std::size_t n_tiles, int quality,
                    const ContentFeatures& features, double seconds,
                    double frame_rate_ratio, SizeNoise noise) {
  return full_rate_bytes(area_fraction, n_tiles, quality, features, seconds) *
         frame_size_factor(frame_rate_ratio) * noise.factor;
}

double tiled_bytes(const std::vector<double>& tile_area_fractions, int quality,
                   const ContentFeatures& features, double seconds,
                   double frame_rate_ratio, SizeNoise noise) {
  return tiled_full_rate_bytes(tile_area_fractions, quality, features, seconds) *
         frame_size_factor(frame_rate_ratio) * noise.factor;
}

double full_rate_bytes(double area_fraction, std::size_t n_tiles, int quality,
                       const ContentFeatures& features, double seconds) {
  PS360_CHECK(area_fraction > 0.0 && area_fraction <= 1.0 + 1e-9);
  PS360_CHECK(n_tiles >= 1);
  PS360_CHECK(seconds > 0.0);
  const double rate = area_rate_mbps(quality, features);
  const double mbps =
      area_fraction * rate +
      static_cast<double>(n_tiles) * tile_overhead_mbps(quality, features);
  return mbps * 1e6 / 8.0 * seconds;
}

double tiled_full_rate_bytes(const std::vector<double>& tile_area_fractions, int quality,
                             const ContentFeatures& features, double seconds) {
  PS360_CHECK(!tile_area_fractions.empty());
  double area = 0.0;
  for (double a : tile_area_fractions) {
    PS360_CHECK(a > 0.0 && a <= 1.0 + 1e-9);
    area += a;
  }
  return full_rate_bytes(std::min(area, 1.0), tile_area_fractions.size(), quality,
                         features, seconds);
}

double frame_size_factor(double frame_rate_ratio) {
  PS360_CHECK(frame_rate_ratio > 0.0 && frame_rate_ratio <= 1.0);
  return std::pow(frame_rate_ratio, kFramerateSizeExponent);
}

double fov_bitrate_mbps(int quality, const ContentFeatures& features) {
  return kFovAreaFraction * area_rate_mbps(quality, features);
}

}  // namespace ps360::video
