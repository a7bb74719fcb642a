// Per-video workload: everything the streaming simulator needs about one
// video, precomputed once and shared across schemes, traces, and devices.
//
//  * 48 synthetic head traces (users 0..39 are the "training" users whose
//    viewing centers build Ptiles and Ftile layouts; users 40..47 are the
//    held-out "test" users the sessions replay — the paper's 40/8 split).
//  * per-segment content features (SI/TI),
//  * per-segment training viewing centers (mean center over the segment),
//  * per-segment Ptiles (Algorithm 1 + builder),
//  * per-segment Ftile layouts (built lazily — they are only needed when the
//    Ftile baseline runs, and k-means over 450 blocks per segment is the
//    most expensive precomputation step: building every segment's layout
//    costs about 1.5-1.7x the rest of this constructor, per DESIGN.md §17).
#pragma once

#include <mutex>
#include <vector>

#include "ptile/ftile.h"
#include "ptile/ptile.h"
#include "trace/head_synth.h"
#include "trace/video_catalog.h"
#include "video/content.h"

namespace ps360::sim {

struct WorkloadConfig {
  std::uint64_t seed = 42;
  double segment_seconds = 1.0;
  std::size_t n_users = trace::kDatasetUsers;            // 48
  std::size_t n_training_users = trace::kTrainingUsers;  // 40
  double fov_deg = 100.0;
  trace::HeadSynthConfig head;          // head-trace synthesis knobs
  ptile::PtileBuildConfig ptile;        // Algorithm 1 / builder knobs
  ptile::FtileLayoutConfig ftile;       // Ftile baseline knobs
};

class VideoWorkload {
 public:
  VideoWorkload(const trace::VideoInfo& video, WorkloadConfig config);

  const trace::VideoInfo& video() const { return video_; }
  const WorkloadConfig& config() const { return config_; }
  std::size_t segment_count() const { return features_.size(); }
  std::size_t test_user_count() const {
    return config_.n_users - config_.n_training_users;
  }

  const video::ContentFeatures& features(std::size_t segment) const;

  // Training users' mean viewing centers during the segment.
  const std::vector<geometry::EquirectPoint>& training_centers(std::size_t segment) const;

  // Ptiles constructed for the segment.
  const ptile::SegmentPtiles& ptiles(std::size_t segment) const;

  // Ftile layout for the segment. Every segment's layout is built on the
  // first call, under a std::call_once, so any number of threads may make
  // that first call at once: all of them get the same layouts, which never
  // move afterwards.
  const ptile::FtileLayout& ftile(std::size_t segment) const;

  // Head trace of a held-out test user (0-based among the test users).
  const trace::HeadTrace& test_trace(std::size_t test_user) const;

  // Head trace of any dataset user (0..n_users).
  const trace::HeadTrace& user_trace(std::size_t user) const;

  // The test user's ground-truth viewport at the segment's midpoint.
  geometry::Viewport actual_viewport(std::size_t test_user, std::size_t segment) const;

  // The test user's Eq. 5 switching speed over the segment window.
  double actual_switching_speed(std::size_t test_user, std::size_t segment) const;

 private:
  trace::VideoInfo video_;
  WorkloadConfig config_;
  std::vector<trace::HeadTrace> traces_;  // all users
  std::vector<video::ContentFeatures> features_;
  std::vector<std::vector<geometry::EquirectPoint>> centers_;  // per segment
  std::vector<ptile::SegmentPtiles> ptiles_;
  mutable std::once_flag ftiles_built_;
  mutable std::vector<ptile::FtileLayout> ftiles_;  // lazy, see ftile()
};

}  // namespace ps360::sim
