#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/check.h"

namespace ps360::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream_a,
                          std::uint64_t stream_b) {
  std::uint64_t s = base;
  (void)splitmix64(s);
  s ^= 0x517cc1b727220a95ULL + stream_a;
  (void)splitmix64(s);
  s ^= 0x2545f4914f6cdd1dULL + stream_b;
  std::uint64_t st = s;
  return splitmix64(st);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // xoshiro state must not be all-zero; splitmix64 seeding guarantees that
  // with overwhelming probability, and we re-seed defensively if it happens.
  std::uint64_t s = seed;
  do {
    for (auto& word : state_) word = splitmix64(s);
  } while (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  PS360_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  PS360_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to keep log finite.
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sigma) {
  PS360_CHECK(sigma >= 0.0);
  return mean + sigma * normal();
}

double Rng::lognormal_median(double median, double sigma_log) {
  PS360_CHECK(median > 0.0);
  PS360_CHECK(sigma_log >= 0.0);
  return median * std::exp(sigma_log * normal());
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  PS360_CHECK(mean > 0.0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

}  // namespace ps360::util
