// VideoWorkload: per-video derived artifacts (features, Ptiles, layouts,
// size-noise tables, head traces) built once from seeded inputs; all
// accessors are const, so every session over the same workload sees
// identical data.
#include "sim/workload.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace ps360::sim {

using geometry::EquirectPoint;
using geometry::Viewport;
using video::FrameRateLadder;
using video::QualityLadder;

std::uint64_t noise_key(const VideoWorkload& workload, std::size_t segment, int quality,
                        std::size_t frame_index, NoiseRole role) {
  return util::derive_seed(
      workload.config().seed,
      static_cast<std::uint64_t>(workload.video().id) * 1000003ULL + segment,
      static_cast<std::uint64_t>(quality) * 100 + frame_index * 10 +
          static_cast<std::uint64_t>(role));
}

std::uint64_t noise_key(const VideoWorkload& workload, std::size_t segment, int quality,
                        std::size_t frame_index, NoiseRole role, std::uint64_t salt) {
  return util::derive_seed(noise_key(workload, segment, quality, frame_index, role),
                           salt + 1, 0);
}

SizeNoiseTable::SizeNoiseTable(const VideoWorkload& workload,
                               const video::EncodingModel& encoding)
    : workload_(workload),
      encoding_(encoding),
      drawn_(std::make_unique<std::once_flag[]>(workload.segment_count())),
      values_(workload.segment_count() * kRowSize) {}

bool SizeNoiseTable::draws_like(const video::EncodingModel& encoding) const {
  return encoding.seed() == encoding_.seed();
}

SizeNoiseRow SizeNoiseTable::row(std::size_t segment) const {
  PS360_CHECK(segment < workload_.segment_count());
  double* const values = values_.data() + segment * kRowSize;
  std::call_once(drawn_[segment], [&] {
    double* out = values;
    for (std::size_t role = 0; role < kMpcRoles; ++role) {
      for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v) {
        for (std::size_t fi = 1; fi <= FrameRateLadder::kOptions; ++fi) {
          *out++ = encoding_
                       .size_noise(noise_key(workload_, segment, v, fi,
                                             static_cast<NoiseRole>(role)))
                       .factor;
        }
      }
    }
    for (std::size_t tile = 0; tile < kGhoshTiles; ++tile) {
      for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v) {
        *out++ = encoding_
                     .size_noise(noise_key(workload_, segment, v, FrameRateLadder::kOptions,
                                           NoiseRole::kGhoshTile, tile))
                     .factor;
      }
    }
  });
  return SizeNoiseRow(values);
}

VideoWorkload::VideoWorkload(const trace::VideoInfo& video, WorkloadConfig config)
    : video_(video), config_(config) {
  PS360_CHECK_MSG(std::isfinite(config_.segment_seconds) && config_.segment_seconds > 0.0,
                  "WorkloadConfig::segment_seconds must be finite and > 0");
  PS360_CHECK_MSG(config_.fov_deg > 0.0 && config_.fov_deg <= 180.0,
                  "WorkloadConfig::fov_deg must be in (0, 180]");
  PS360_CHECK(config_.n_training_users >= 1);
  PS360_CHECK(trace::kDatasetUsers > config_.n_training_users);

  // The one seed and the one FoV reach every builder from here.
  const ptile::PtileBuilder builder(util::Degrees(config_.fov_deg), config_.ptile);
  const trace::HeadTraceSynthesizer synth(config_.seed);
  traces_ = synth.synthesize_all(video_, trace::kDatasetUsers);

  // Segment k reads only the traces and the const builder and writes only
  // slot k, so the segments run on the pool in any order.
  const std::size_t n_segments = video::segment_count(video_, config_.segment_seconds);
  features_.resize(n_segments);
  centers_.resize(n_segments);
  ptiles_.resize(n_segments);
  util::for_each_slot(n_segments, [&](std::size_t k) {
    features_[k] = video::segment_features(video_, k, config_.seed);

    const double t0 = static_cast<double>(k) * config_.segment_seconds;
    const double t1 = std::min(t0 + config_.segment_seconds, video_.duration_s);
    std::vector<EquirectPoint>& centers = centers_[k];
    centers.reserve(config_.n_training_users);
    for (std::size_t u = 0; u < config_.n_training_users; ++u)
      centers.push_back(traces_[u].mean_center(t0, t1));
    ptiles_[k] = builder.build(centers);
  });
}

const video::ContentFeatures& VideoWorkload::features(std::size_t segment) const {
  PS360_CHECK(segment < features_.size());
  return features_[segment];
}

const std::vector<EquirectPoint>& VideoWorkload::training_centers(
    std::size_t segment) const {
  PS360_CHECK(segment < centers_.size());
  return centers_[segment];
}

const ptile::SegmentPtiles& VideoWorkload::ptiles(std::size_t segment) const {
  PS360_CHECK(segment < ptiles_.size());
  return ptiles_[segment];
}

const ptile::FtileLayout& VideoWorkload::ftile(std::size_t segment) const {
  PS360_CHECK(segment < centers_.size());
  std::call_once(ftiles_built_, [this] {
    std::vector<ptile::FtileLayout> layouts;
    layouts.reserve(centers_.size());
    for (const auto& centers : centers_)
      layouts.emplace_back(centers, util::Degrees(config_.fov_deg), config_.seed);
    ftiles_ = std::move(layouts);
  });
  return ftiles_[segment];
}

const SizeNoiseTable& VideoWorkload::size_noise_table(
    const video::EncodingModel& encoding) const {
  const std::lock_guard<std::mutex> lock(noise_mutex_);
  for (const auto& table : noise_tables_) {
    if (table->draws_like(encoding)) return *table;
  }
  return *noise_tables_.emplace_back(std::make_unique<SizeNoiseTable>(*this, encoding));
}

const trace::HeadTrace& VideoWorkload::test_trace(std::size_t test_user) const {
  PS360_CHECK(test_user < test_user_count());
  return traces_[config_.n_training_users + test_user];
}

const trace::HeadTrace& VideoWorkload::user_trace(std::size_t user) const {
  PS360_CHECK(user < traces_.size());
  return traces_[user];
}

Viewport VideoWorkload::actual_viewport(std::size_t test_user,
                                        std::size_t segment) const {
  const double mid = (static_cast<double>(segment) + 0.5) * config_.segment_seconds;
  return test_trace(test_user).viewport_at(std::min(mid, video_.duration_s),
                                           util::Degrees(config_.fov_deg));
}

double VideoWorkload::actual_switching_speed(std::size_t test_user,
                                             std::size_t segment) const {
  const double t0 = static_cast<double>(segment) * config_.segment_seconds;
  const double t1 =
      std::min(t0 + config_.segment_seconds, test_trace(test_user).duration());
  if (t1 <= t0 + 1e-9) return 0.0;
  return test_trace(test_user).switching_speed(t0, t1);
}

}  // namespace ps360::sim
