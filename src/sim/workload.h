// Per-video workload: everything the streaming simulator needs about one
// video, precomputed once and shared across schemes, traces, and devices.
//
//  * 48 synthetic head traces (users 0..39 are the "training" users whose
//    viewing centers build Ptiles and Ftile layouts; users 40..47 are the
//    held-out "test" users the sessions replay — the paper's 40/8 split).
//  * per-segment content features (SI/TI),
//  * per-segment training viewing centers (mean center over the segment),
//  * per-segment Ptiles (Algorithm 1 + builder),
//  * per-segment Ftile layouts (built lazily and serially — they are only
//    needed when the Ftile baseline runs, and workloads that never run
//    Ftile, such as every fleet of Ours sessions, would pay for them for
//    nothing; a variant that built them on the pool too moved no end-to-end
//    row on a 4-vCPU host: the tournament read 220.8k segments/s with it and
//    221.0k without (4 of 6 pairs), and paper-grid won 4 of 6 pairs
//    (DESIGN.md §17)),
//  * per-encoding size-noise tables (the second lazy artifact): every
//    encode's lognormal size factor, keyed by the encoding's seed, the only
//    value EncodingModel::size_noise reads. The first scheme built for a
//    seed creates its table under a mutex; each segment's row is drawn
//    at its first plan under its own std::call_once, never in the
//    constructor. Every session, fleet and grid cell that plans over the
//    video with that encoding reads the same draws.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ptile/ftile.h"
#include "ptile/ptile.h"
#include "trace/head_synth.h"
#include "trace/video_catalog.h"
#include "util/check.h"
#include "video/content.h"
#include "video/encoding.h"
#include "video/quality.h"

namespace ps360::sim {

class VideoWorkload;

// Which encode of a segment a size-noise draw belongs to. Roles 0-6 are the
// MPC schemes' encodes, drawn per (quality, frame index); role 7 is one tile
// of the Ghosh allocators, drawn per (tile, quality) at the original frame
// rate and salted by the tile's row-major id.
enum class NoiseRole : int {
  kCtileHq = 0,
  kCtileBackground = 1,
  kFtileHq = 2,
  kFtileBackground = 3,
  kNontile = 4,
  kPtile = 5,
  kPtileBackground = 6,
  kGhoshTile = 7,
};

// One segment's drawn size-noise factors: a row of SizeNoiseTable.
class SizeNoiseRow {
 public:
  // Roles 0-6: the factor of (role, quality, frame index).
  video::SizeNoise at(NoiseRole role, int quality, std::size_t frame_index) const;
  // Role 7: the factor of Ghosh tile `tile` (row-major on the paper's 4x8
  // grid) at `quality`.
  video::SizeNoise ghosh_tile(std::size_t tile, int quality) const;

 private:
  friend class SizeNoiseTable;
  explicit SizeNoiseRow(const double* values) : values_(values) {}

  const double* values_;
};

// Every encode's size-noise factor for one (video, encoding seed):
// entry = EncodingModel::size_noise(noise_key(...)) for roles 0-6 × 5
// qualities × 4 frame indices plus 32 Ghosh tiles × 5 qualities, 300
// factors per segment. Obtained from VideoWorkload::size_noise_table.
class SizeNoiseTable {
 public:
  static constexpr std::size_t kMpcRoles = 7;  // roles 0-6
  static constexpr std::size_t kRoleEntries =
      kMpcRoles * video::QualityLadder::kLevels * video::FrameRateLadder::kOptions;
  static constexpr std::size_t kGhoshTiles =
      geometry::kPaperGridRows * geometry::kPaperGridCols;
  static constexpr std::size_t kRowSize =
      kRoleEntries + kGhoshTiles * video::QualityLadder::kLevels;

  SizeNoiseTable(const VideoWorkload& workload, const video::EncodingModel& encoding);
  // Schemes keep the table's address, so it never moves.
  SizeNoiseTable(const SizeNoiseTable&) = delete;
  SizeNoiseTable& operator=(const SizeNoiseTable&) = delete;

  // True when `encoding` draws exactly this table's factors (it has this
  // table's seed).
  bool draws_like(const video::EncodingModel& encoding) const;

  // The segment's factors, drawn on the first call for the segment under a
  // std::call_once, so any number of threads may make that call at once;
  // the row never moves afterwards.
  SizeNoiseRow row(std::size_t segment) const;

 private:
  const VideoWorkload& workload_;
  const video::EncodingModel encoding_;
  std::unique_ptr<std::once_flag[]> drawn_;  // one per segment
  mutable std::vector<double> values_;       // segment-major rows of kRowSize
};

inline video::SizeNoise SizeNoiseRow::at(NoiseRole role, int quality,
                                         std::size_t frame_index) const {
  const auto r = static_cast<std::size_t>(role);
  const auto q = static_cast<std::size_t>(quality - video::QualityLadder::kMinLevel);
  PS360_ASSERT(r < SizeNoiseTable::kMpcRoles && q < video::QualityLadder::kLevels &&
               frame_index >= 1 &&
               frame_index <= video::FrameRateLadder::kOptions);
  return {values_[(r * video::QualityLadder::kLevels + q) *
                      video::FrameRateLadder::kOptions +
                  frame_index - 1]};
}

inline video::SizeNoise SizeNoiseRow::ghosh_tile(std::size_t tile, int quality) const {
  const auto q = static_cast<std::size_t>(quality - video::QualityLadder::kMinLevel);
  PS360_ASSERT(tile < SizeNoiseTable::kGhoshTiles && q < video::QualityLadder::kLevels);
  return {values_[SizeNoiseTable::kRoleEntries + tile * video::QualityLadder::kLevels + q]};
}

// The workload synthesizes trace::kDatasetUsers (48) head traces at the
// synthesizer's default sample rate; the Ftile layouts use
// ptile::FtileLayout's fixed 15 x 30 blocks and 10 tiles.
struct WorkloadConfig {
  std::uint64_t seed = 42;
  double segment_seconds = 1.0;
  std::size_t n_training_users = trace::kTrainingUsers;  // 40
  // The viewport size, in (0, 180]: the Ptile members, the Ftile views and
  // the viewports played are all this large.
  double fov_deg = 100.0;
  ptile::PtileBuildConfig ptile;        // Algorithm 1 / builder knobs
};

class VideoWorkload {
 public:
  // Builds the traces, features, centers and Ptiles on the worker pool
  // (util::for_each_slot): the users, then the segments, each writing only
  // its own slot, so every thread count builds the same bits. Its seed,
  // fov_deg and segment_seconds have no other copy: the builders take them
  // as arguments. Throws std::invalid_argument naming a bad field, e.g. a
  // segment_seconds that is not finite and > 0 or an fov_deg outside
  // (0, 180].
  VideoWorkload(const trace::VideoInfo& video, WorkloadConfig config);

  const trace::VideoInfo& video() const { return video_; }
  const WorkloadConfig& config() const { return config_; }
  std::size_t segment_count() const { return features_.size(); }
  std::size_t test_user_count() const {
    return trace::kDatasetUsers - config_.n_training_users;
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

  // The size-noise table of `encoding`'s seed over this video. The first
  // call for a seed creates it; every later call, from any thread,
  // returns the same table, which never moves. Its rows are drawn on first
  // use (SizeNoiseTable::row).
  const SizeNoiseTable& size_noise_table(const video::EncodingModel& encoding) const;

  // Head trace of a held-out test user (0-based among the test users).
  const trace::HeadTrace& test_trace(std::size_t test_user) const;

  // Head trace of any dataset user (0..trace::kDatasetUsers).
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
  // Guards noise_tables_, which only grows: a table is appended once per
  // seed and never moved or removed. Which thread appends it changes no
  // factor, since each is a pure function of its key.
  mutable std::mutex noise_mutex_;
  mutable std::vector<std::unique_ptr<SizeNoiseTable>> noise_tables_;
};

// Deterministic per-(segment, version, role) key for the encoding-size
// noise. The salt overload folds a Ghosh tile's row-major id into the key
// without colliding with the unsalted roles.
std::uint64_t noise_key(const VideoWorkload& workload, std::size_t segment, int quality,
                        std::size_t frame_index, NoiseRole role);
std::uint64_t noise_key(const VideoWorkload& workload, std::size_t segment, int quality,
                        std::size_t frame_index, NoiseRole role, std::uint64_t salt);

}  // namespace ps360::sim
