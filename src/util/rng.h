// Deterministic pseudo-random number generation.
//
// Everything stochastic in pstream360 (trace synthesis, measurement noise,
// k-means initialisation, ...) draws from an explicitly seeded Rng so that
// every test, example, and bench is bit-reproducible. The generator is
// xoshiro256**, seeded via splitmix64 so that nearby seeds give unrelated
// streams.
#pragma once

#include <array>
#include <cstdint>

namespace ps360::util {

// splitmix64 step; used for seeding and for cheap stateless hashing of ids
// into stream seeds (e.g. one independent stream per user per video).
std::uint64_t splitmix64(std::uint64_t& state);

// Combine a base seed with stream identifiers into a derived seed.
// Deterministic, order-sensitive, avalanching.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream_a,
                          std::uint64_t stream_b = 0);

// xoshiro256** 1.0 — fast, high-quality, 256-bit state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Raw 64 uniform bits.
  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  // Standard normal via Box-Muller (cached second value).
  double normal();

  // Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  // Log-normal such that the *median* of the distribution is `median` and the
  // underlying normal has standard deviation `sigma_log` in log-space.
  double lognormal_median(double median, double sigma_log);

  // Bernoulli draw with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  // Exponential with the given mean (> 0).
  double exponential(double mean);

 private:
  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ps360::util
