// The encoding-size model: how many bytes a tiled encoding of part of the
// 360° frame costs.
//
// This replaces the paper's FFmpeg/x264 encodes (DESIGN.md §2). The model is
//
//   bytes(region) = [ area · rate(q, SI, TI)                       (content)
//                     + Σ_tiles ovh(q, tile_area) ]               (tiling)
//                   · seconds · frame_ratio^γ · noise
//
// with
//   rate(q, SI, TI)  — full-frame-equivalent Mbps: an exponential CRF ladder
//                      scaled by content complexity (more spatial detail and
//                      motion -> more bits at the same CRF).
//   ovh(q)           — per-tile fragmentation overhead. Encoding a region as
//                      many independently decodable tiles removes the
//                      encoder's ability to exploit redundancy across tile
//                      boundaries, and each tile restarts headers, I-frames
//                      and motion search. We model this as a fixed per-tile
//                      cost per quality level, *calibrated so that the
//                      Fig. 8 medians come out exactly*: a Ptile is
//                      62/57/47/35/27% of the size of the 9 conventional
//                      tiles covering the same area at quality 5/4/3/2/1.
//                      (A per-tile cost that grows with tile area cannot
//                      reproduce the 0.27 ratio at quality 1: with overhead
//                      ∝ area^p the 1-vs-9-tile ratio is bounded below by
//                      9^{p-1}, so p must be ~0 — fixed cost — which is also
//                      why the paper's Ftile baseline must cluster its 450
//                      small blocks into 10 tiles to be viable at all.)
//   frame_ratio^γ    — dropping frames saves bytes sublinearly (γ < 1): the
//                      dropped frames are cheap predicted frames, and wider
//                      temporal gaps make the surviving frames cost more.
//   noise            — per-(segment, region) lognormal variation reproducing
//                      the CDF spread of Fig. 8. Keyed, deterministic: the
//                      caller draws it with size_noise(seed, key) and passes
//                      the drawn factor (the schemes read theirs from the
//                      video's SizeNoiseTable, sim/workload.h).
//
// The model also defines the `b` used by the QoE logistic (Eq. 3):
// fov_bitrate_mbps(q) is the bitrate of a FoV-sized patch at quality q.
// Because CRF fixes per-pixel quantization, perceived quality depends on q
// (not on how many bytes a particular tiling spends), so all schemes share
// this mapping.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "video/content.h"
#include "video/quality.h"

namespace ps360::video {

// The Fig. 8 calibration anchor: a Ptile of kAnchorTileCount reference
// tiles, each one tile of the paper's 4x8 grid (45° x 45°), is
// kFovSizeRatio[q - 1] of the size of the same area encoded as that many
// conventional tiles, at quality q (the paper's medians, 62/57/47/35/27% at
// quality 5/4/3/2/1).
inline constexpr double kRefTileAreaFraction = (45.0 * 45.0) / (360.0 * 180.0);
inline constexpr std::size_t kAnchorTileCount = 9;
inline constexpr std::array<double, QualityLadder::kLevels> kFovSizeRatio = {
    0.27, 0.35, 0.47, 0.57, 0.62};

// A drawn size-noise factor (size_noise). Its own type, so a raw noise key
// cannot stand in for a drawn factor.
struct SizeNoise {
  double factor = 1.0;
};

// The model holds no state: its calibration is the constants of
// encoding.cpp, and the caller's seed keys the size noise.

// Full-frame-equivalent rate in Mbps at the given quality for content.
double area_rate_mbps(int quality, const ContentFeatures& features);

// Fragmentation overhead in Mbps of one independently decodable tile at the
// given quality (fixed per tile; see file comment).
double tile_overhead_mbps(int quality, const ContentFeatures& features);

// The deterministic lognormal size jitter of `noise_key` under `seed`
// (median 1); key 0 gives exactly 1. A session draws under its
// SessionConfig::seed.
SizeNoise size_noise(std::uint64_t seed, std::uint64_t noise_key);

// Bytes for a region of `area_fraction` of the frame encoded as `n_tiles`
// equal tiles at `quality`, `seconds` long, at a reduced frame-rate ratio
// (f / fm in (0,1]), scaled by a drawn size-noise factor (the default
// disables noise: exact medians, as the calibration tests use). Computed as
// full_rate_bytes(...) * frame_size_factor(ratio) * noise.factor.
double region_bytes(double area_fraction, std::size_t n_tiles, int quality,
                    const ContentFeatures& features, double seconds,
                    double frame_rate_ratio = 1.0, SizeNoise noise = {});

// Bytes for a region made of tiles with the given individual area fractions
// (for irregular layouts like Ftile), composed likewise.
double tiled_bytes(const std::vector<double>& tile_area_fractions, int quality,
                   const ContentFeatures& features, double seconds,
                   double frame_rate_ratio = 1.0, SizeNoise noise = {});

// The factors of region_bytes / tiled_bytes, which a planner evaluates at
// different granularities: noise-free bytes at the original frame rate, and
// the frame-rate size factor frame_rate_ratio^γ.
double full_rate_bytes(double area_fraction, std::size_t n_tiles, int quality,
                       const ContentFeatures& features, double seconds);
double tiled_full_rate_bytes(const std::vector<double>& tile_area_fractions, int quality,
                             const ContentFeatures& features, double seconds);
double frame_size_factor(double frame_rate_ratio);

// Mbps of a FoV-sized (100° x 100°) patch at this quality — both the
// transfer-size proxy and, scaled by QoModel's bitrate_scale, the `b` fed to
// Eq. 3 (perceived quality follows the encode's actual rate, as in the
// paper's VMAF-vs-bitrate fit).
double fov_bitrate_mbps(int quality, const ContentFeatures& features);

}  // namespace ps360::video
