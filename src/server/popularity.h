// Seeded Zipf(α) video-popularity model for the server/CDN layer.
//
// The fleet engine assigns every session a video id at spawn by sampling
// this distribution with an Rng derived from (fleet seed,
// kVideoPopularityStream, session id) — the same derive_seed discipline as
// the start stagger and fault schedules, so the catalog assignment is
// bit-identical across runs, platforms, and PS360_THREADS. Rank r (which is
// also the video id; rank 0 is the most popular title) has static
// probability p(r) ∝ 1 / (r + 1)^α. α = 0 is a uniform catalog; α around
// 0.8–1.2 matches measured VoD popularity skews and is what makes a small
// edge cache absorb most of the request stream.
//
// Sampling is inverse-CDF over a table precomputed in the constructor: no
// allocation, no data-dependent iteration order, one binary search per draw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace ps360::server {

// Seed stream tag for per-session video draws (fixed forever; changing it
// would silently re-shuffle every seeded fleet's catalog assignment).
inline constexpr std::uint64_t kVideoPopularityStream = 0x21DFC0DE360ULL;

struct ZipfConfig {
  std::size_t videos = 1;  // catalog size (ids 0 .. videos-1)
  double alpha = 0.8;      // skew exponent; >= 0, 0 = uniform
};

class ZipfPopularity {
 public:
  explicit ZipfPopularity(const ZipfConfig& config);

  std::size_t videos() const { return config_.videos; }
  double alpha() const { return config_.alpha; }

  // Static probability of rank `rank` (== video id); ranks sum to 1.
  double probability(std::size_t rank) const;

  // One inverse-CDF draw: a video id in [0, videos()).
  std::size_t sample(util::Rng& rng) const;

 private:
  ZipfConfig config_;
  std::vector<double> prob_;  // prob_[r] = p(rank r)
  std::vector<double> cdf_;   // cdf_[r] = Σ prob_[0..r]; back() == 1.0
};

}  // namespace ps360::server
