#include "calibration.h"

#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

volatile double kernel_sink = 0.0;

}  // namespace

double kernel_s() {
  constexpr std::size_t kN = 1 << 14;  // 128 KiB of doubles
  constexpr int kRounds = 50;
  std::vector<double> data(kN);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (double& v : data) v = static_cast<double>(next() >> 11) * 0x1.0p-53;
  const double t0 = wall_now();
  double acc = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kN; ++i) {
      const double v = data[next() & (kN - 1)] * 0.75 + data[i] * 0.25;
      data[i] = v > 0.5 ? v - 0.25 : v + 0.125;
      acc += v;
    }
  }
  const double elapsed = wall_now() - t0;
  kernel_sink = acc;  // keeps the kernel from being optimized away
  return elapsed;
}

}  // namespace perfbench
