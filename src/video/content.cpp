#include "video/content.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.h"
#include "util/rng.h"

namespace ps360::video {

std::size_t segment_count(const trace::VideoInfo& video, double segment_seconds) {
  PS360_CHECK(segment_seconds > 0.0);
  return ceil_count(video.duration_s / segment_seconds, "duration_s");
}

ContentFeatures segment_features(const trace::VideoInfo& video,
                                 std::size_t segment_index, std::uint64_t seed) {
  // Smooth scene-level drift (long sinusoids with video-specific phase) plus
  // segment-level jitter keyed on (seed, video, segment).
  const double t = static_cast<double>(segment_index);
  const double phase = static_cast<double>(video.id) * 1.37;

  util::Rng jitter(util::derive_seed(seed, static_cast<std::uint64_t>(video.id) * 409,
                                     0xC0FFEEULL + segment_index));

  const double si_wave = 7.0 * std::sin(2.0 * std::numbers::pi * t / 47.0 + phase) +
                         4.0 * std::sin(2.0 * std::numbers::pi * t / 13.0 + 2.0 * phase);
  const double ti_wave = 0.25 * video.ti_base *
                             std::sin(2.0 * std::numbers::pi * t / 23.0 + 3.0 * phase) +
                         0.10 * video.ti_base *
                             std::sin(2.0 * std::numbers::pi * t / 7.0 + phase);

  ContentFeatures f;
  f.si = std::clamp(video.si_base + si_wave + jitter.normal(0.0, 2.0), 10.0, 90.0);
  f.ti = std::clamp(video.ti_base + ti_wave + jitter.normal(0.0, 1.5), 2.0, 80.0);
  return f;
}

ContentFeatures video_features(const trace::VideoInfo& video, double segment_seconds,
                               std::uint64_t seed) {
  const std::size_t n = segment_count(video, segment_seconds);
  PS360_CHECK(n > 0);
  double si_sum = 0.0, ti_sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const ContentFeatures f = segment_features(video, k, seed);
    si_sum += f.si;
    ti_sum += f.ti;
  }
  return ContentFeatures{si_sum / static_cast<double>(n), ti_sum / static_cast<double>(n)};
}

}  // namespace ps360::video
