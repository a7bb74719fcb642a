// Synthetic head-movement traces.
//
// Substitute for the 48-user dataset of Wu et al. [8] (see DESIGN.md §2).
// The generative model mirrors how the paper describes viewing behaviour:
//
//  * Each video has a small number of moving points of interest
//    ("attractors") whose paths are smooth, deterministic functions of the
//    video id. Sports content has fast attractors, staged performances slow
//    ones (trace::VideoInfo).
//  * Each user pursues one attractor at a time with first-order smooth
//    pursuit plus a personal gaze offset (users of similar interest look at
//    nearby but not identical points — this is what makes viewing centers
//    cluster, the premise of Ptile construction).
//  * Dwell times are exponential; on expiry the user either switches to
//    another attractor or free-explores for a while. Free exploration is
//    rare for videos 1-4 (users were instructed to focus) and common for
//    videos 5-8. Attractor popularity is skewed (most users watch the main
//    action), which is why one or two Ptiles cover most segments (Fig. 7).
//  * Attractor switches and exploration cause fast view switching; sensor
//    jitter adds a high-frequency component. Together these reproduce the
//    Fig. 5 speed distribution (> 10 deg/s for >~30% of samples).
//
// All draws are keyed on (seed, video id, user id), so traces are stable
// across runs and independent across users.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/head_trace.h"
#include "trace/video_catalog.h"

namespace ps360::trace {

struct HeadSynthConfig {
  double sample_rate_hz = 50.0;

  // Smooth-pursuit gain (1/s): how aggressively the gaze closes on the
  // target. Larger -> faster saccades on attractor switches.
  double pursuit_gain = 1.8;

  // Velocity caps (deg/s) for the horizontal/vertical axes; human saccades
  // peak far higher, but headset yaw is what we model.
  double max_speed_x = 120.0;
  double max_speed_y = 60.0;

  // Std-dev of white velocity noise (deg/s) during pursuit.
  double velocity_noise = 2.5;

  // Std-dev of per-sample sensor jitter (degrees).
  double sensor_jitter = 0.07;

  // Personal gaze-offset spread (degrees) for focused / exploratory videos.
  double offset_sigma_focused = 7.0;
  double offset_sigma_free = 9.0;

  // Mean dwell on one target (seconds) before re-deciding.
  double dwell_mean_focused = 18.0;
  double dwell_mean_free = 11.0;

  // Probability that a re-decision starts a free-exploration episode.
  double explore_prob_focused = 0.06;
  double explore_prob_free = 0.20;

  // Mean duration of a free-exploration episode (seconds).
  double explore_mean_s = 3.0;
};

// Deterministic path of one point of interest.
class AttractorPath {
 public:
  // `index` selects the attractor within the video; paths are deterministic
  // functions of (seed, video id, index).
  AttractorPath(const VideoInfo& video, std::size_t index, std::uint64_t seed);

  geometry::EquirectPoint at(double t) const;

  // Popularity weight (skewed toward the first attractor).
  double weight() const { return weight_; }

 private:
  double lon0_, lon_amp_, lon_period_, lon_phase_;
  double y0_, y_amp_, y_period_, y_phase_;
  double drift_;  // slow longitudinal drift, deg/s
  double weight_;
};

class HeadTraceSynthesizer {
 public:
  // Every draw is keyed on `seed` (the workload passes its
  // WorkloadConfig::seed).
  explicit HeadTraceSynthesizer(std::uint64_t seed, HeadSynthConfig config = {});

  std::uint64_t seed() const { return seed_; }
  const HeadSynthConfig& config() const { return config_; }

  // Attractor paths for a video (shared by all users watching it).
  std::vector<AttractorPath> attractors(const VideoInfo& video) const;

  // One user's head trace over the full video duration.
  HeadTrace synthesize(const VideoInfo& video, int user_id) const;

  // Traces for users [0, n_users), synthesize(video, u) for each u. The
  // attractor paths are tabulated once at every sample time for all users,
  // who then run on the worker pool (util::for_each_slot).
  std::vector<HeadTrace> synthesize_all(const VideoInfo& video,
                                        std::size_t n_users) const;

 private:
  struct VideoPaths;  // head_synth.cpp
  VideoPaths tabulate(const VideoInfo& video) const;
  HeadTrace synthesize(const VideoInfo& video, int user_id, const VideoPaths& shared) const;

  std::uint64_t seed_;
  HeadSynthConfig config_;
};

}  // namespace ps360::trace
