// Synthetic head-trajectory generator (attractor + drift + saccades).
// Pure function of (video params, seed): no global RNG, no wall clock, so
// generated traces are reproducible sample-for-sample.
#include "trace/head_synth.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>

#include "util/check.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace ps360::trace {

using geometry::EquirectPoint;

AttractorPath::AttractorPath(const VideoInfo& video, std::size_t index,
                             std::uint64_t seed) {
  PS360_CHECK(index < video.n_attractors);
  util::Rng rng(util::derive_seed(seed, static_cast<std::uint64_t>(video.id) * 131 + 7,
                                  0xA770000ULL + index));
  const double n = static_cast<double>(video.n_attractors);
  // Spread base longitudes around the sphere with jitter so attractors for
  // different videos are decorrelated.
  lon0_ = geometry::wrap360(
              geometry::Degrees(360.0 * (static_cast<double>(index) + 0.5) / n +
                                rng.uniform(-30.0, 30.0)))
              .value();
  lon_period_ = rng.uniform(18.0, 40.0);
  lon_phase_ = rng.uniform(0.0, 2.0 * std::numbers::pi);
  // Sinusoidal oscillation whose *peak* angular speed matches the genre's
  // attractor speed: A * 2*pi / P = speed.
  lon_amp_ = video.attractor_speed * lon_period_ / (2.0 * std::numbers::pi);
  drift_ = rng.uniform(-0.15, 0.15) * video.attractor_speed;

  y0_ = 90.0 + rng.uniform(-12.0, 12.0);
  y_period_ = rng.uniform(22.0, 45.0);
  y_phase_ = rng.uniform(0.0, 2.0 * std::numbers::pi);
  y_amp_ = std::min(20.0, 0.4 * video.attractor_speed * y_period_ /
                              (2.0 * std::numbers::pi));

  // Skewed popularity: the first attractor is the main action.
  static constexpr double kWeights[] = {0.65, 0.25, 0.10, 0.05};
  weight_ = kWeights[std::min<std::size_t>(index, 3)];
}

EquirectPoint AttractorPath::at(double t) const {
  const double lon = lon0_ + drift_ * t +
                     lon_amp_ * std::sin(2.0 * std::numbers::pi * t / lon_period_ +
                                         lon_phase_);
  double y = y0_ + y_amp_ * std::sin(2.0 * std::numbers::pi * t / y_period_ + y_phase_);
  y = std::clamp(y, 15.0, 165.0);
  return EquirectPoint{geometry::wrap360(geometry::Degrees(lon)).value(), y};
}

HeadTraceSynthesizer::HeadTraceSynthesizer(std::uint64_t seed, HeadSynthConfig config)
    : seed_(seed), config_(config) {
  PS360_CHECK_MSG(std::isfinite(config_.sample_rate_hz) && config_.sample_rate_hz > 0.0,
                  "sample_rate_hz must be finite and > 0");
  PS360_CHECK(config_.pursuit_gain > 0.0);
}

std::vector<AttractorPath> HeadTraceSynthesizer::attractors(const VideoInfo& video) const {
  std::vector<AttractorPath> paths;
  paths.reserve(video.n_attractors);
  for (std::size_t i = 0; i < video.n_attractors; ++i)
    paths.emplace_back(video, i, seed_);
  return paths;
}

namespace {

// Pick an attractor index by popularity weight.
std::size_t pick_attractor(const std::vector<AttractorPath>& paths, util::Rng& rng) {
  double total = 0.0;
  for (const auto& p : paths) total += p.weight();
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    u -= paths[i].weight();
    if (u <= 0.0) return i;
  }
  return paths.size() - 1;
}

}  // namespace

// What every user of one video shares: its attractor paths, the sample times
// t = i * dt for i < n_samples, and each path's position at each of them.
struct HeadTraceSynthesizer::VideoPaths {
  std::vector<AttractorPath> paths;
  double dt = 0.0;
  std::size_t n_samples = 0;
  // Attractor-major: entry a * n_samples + i is paths[a].at(i * dt), the call
  // the sample loop made for that sample, so the same doubles.
  std::vector<EquirectPoint> positions;
};

HeadTraceSynthesizer::VideoPaths HeadTraceSynthesizer::tabulate(
    const VideoInfo& video) const {
  VideoPaths shared;
  shared.paths = attractors(video);
  shared.dt = 1.0 / config_.sample_rate_hz;
  ceil_count(video.duration_s, "duration_s");  // alone first, then times the rate
  shared.n_samples = 1 + ceil_count(video.duration_s * config_.sample_rate_hz,
                                    "duration_s * sample_rate_hz");
  shared.positions.reserve(shared.paths.size() * shared.n_samples);
  for (const AttractorPath& path : shared.paths) {
    for (std::size_t i = 0; i < shared.n_samples; ++i)
      shared.positions.push_back(path.at(static_cast<double>(i) * shared.dt));
  }
  return shared;
}

HeadTrace HeadTraceSynthesizer::synthesize(const VideoInfo& video, int user_id) const {
  return synthesize(video, user_id, tabulate(video));
}

HeadTrace HeadTraceSynthesizer::synthesize(const VideoInfo& video, int user_id,
                                           const VideoPaths& shared) const {
  const std::vector<AttractorPath>& paths = shared.paths;
  util::Rng rng(util::derive_seed(seed_,
                                  static_cast<std::uint64_t>(video.id) * 977 + 13,
                                  0x5EEDULL + static_cast<std::uint64_t>(user_id)));

  const double offset_sigma =
      video.focused ? config_.offset_sigma_focused : config_.offset_sigma_free;
  const double dwell_mean =
      video.focused ? config_.dwell_mean_focused : config_.dwell_mean_free;
  const double explore_prob =
      video.focused ? config_.explore_prob_focused : config_.explore_prob_free;

  // Stable personal gaze offset: users in the same cluster look at nearby
  // but distinct points.
  const double offset_x = rng.normal(0.0, offset_sigma);
  const double offset_y = rng.normal(0.0, offset_sigma * 0.7);

  const double dt = shared.dt;
  const std::size_t n_samples = shared.n_samples;

  // Attention state machine.
  bool exploring = false;
  std::size_t target_attractor = pick_attractor(paths, rng);
  EquirectPoint explore_target{0.0, 90.0};
  double next_decision_t = rng.exponential(dwell_mean);

  // Gaze state: start on the initial target.
  EquirectPoint pos = shared.positions[target_attractor * n_samples];
  pos.x = geometry::wrap360(geometry::Degrees(pos.x + offset_x)).value();
  pos.y = std::clamp(pos.y + offset_y, 0.0, 180.0);

  std::vector<HeadSample> samples;
  samples.reserve(n_samples);

  for (std::size_t i = 0; i < n_samples; ++i) {
    const double t = static_cast<double>(i) * dt;

    if (t >= next_decision_t) {
      if (!exploring && rng.bernoulli(explore_prob)) {
        exploring = true;
        explore_target = EquirectPoint{rng.uniform(0.0, 360.0),
                                       std::clamp(rng.normal(90.0, 25.0), 10.0, 170.0)};
        next_decision_t = t + rng.exponential(config_.explore_mean_s);
      } else {
        exploring = false;
        target_attractor = pick_attractor(paths, rng);
        next_decision_t = t + rng.exponential(dwell_mean);
      }
    }

    EquirectPoint target;
    if (exploring) {
      target = explore_target;
    } else {
      target = shared.positions[target_attractor * n_samples + i];
      target.x = geometry::wrap360(geometry::Degrees(target.x + offset_x)).value();
      target.y = std::clamp(target.y + offset_y, 0.0, 180.0);
    }

    // First-order smooth pursuit with velocity caps and white velocity noise.
    const double err_x = geometry::wrap_delta(geometry::Degrees(target.x),
                                              geometry::Degrees(pos.x))
                             .value();
    const double err_y = target.y - pos.y;
    const double vx = std::clamp(config_.pursuit_gain * err_x, -config_.max_speed_x,
                                 config_.max_speed_x) +
                      rng.normal(0.0, config_.velocity_noise);
    const double vy = std::clamp(config_.pursuit_gain * err_y, -config_.max_speed_y,
                                 config_.max_speed_y) +
                      rng.normal(0.0, config_.velocity_noise);
    pos.x = geometry::wrap360(geometry::Degrees(pos.x + vx * dt)).value();
    pos.y = std::clamp(pos.y + vy * dt, 0.0, 180.0);

    // Recorded sample = true gaze + sensor jitter.
    EquirectPoint recorded{
        geometry::wrap360(
            geometry::Degrees(pos.x + rng.normal(0.0, config_.sensor_jitter)))
            .value(),
        std::clamp(pos.y + rng.normal(0.0, config_.sensor_jitter), 0.0, 180.0)};
    samples.push_back(HeadSample{t, recorded});
  }

  return HeadTrace(video.id, user_id, std::move(samples));
}

std::vector<HeadTrace> HeadTraceSynthesizer::synthesize_all(const VideoInfo& video,
                                                            std::size_t n_users) const {
  const VideoPaths shared = tabulate(video);
  // Each user draws from its own (seed, video, user) stream and writes only
  // its own slot, so the users run on the pool in any order.
  std::vector<std::optional<HeadTrace>> slots(n_users);
  util::for_each_slot(n_users, [&](std::size_t u) {
    slots[u].emplace(synthesize(video, static_cast<int>(u), shared));
  });
  std::vector<HeadTrace> traces;
  traces.reserve(n_users);
  for (auto& slot : slots) traces.push_back(std::move(*slot));
  return traces;
}

}  // namespace ps360::trace
