// The encoding quality ladder.
//
// The paper encodes every tile at five quality levels obtained by varying
// x264's constant rate factor from 38 down to 18 in steps of 5 (level 1 =
// CRF 38 = worst, level 5 = CRF 18 = best). Rate roughly decays
// exponentially in CRF; we use bits ∝ exp(-kRate * (CRF - 18)) which matches
// the usual "~halving per +5..6 CRF" rule of thumb.
#pragma once

#include <array>
#include <cstddef>

namespace ps360::video {

class QualityLadder {
 public:
  static constexpr int kMinLevel = 1;
  static constexpr int kMaxLevel = 5;
  static constexpr std::size_t kLevels = 5;

  // CRF for a quality level in [1,5]: 38, 33, 28, 23, 18.
  static int crf(int level);

  // Relative rate vs. level 5 (== 1.0), strictly increasing in level.
  static double rate_factor(int level);

  // All levels, ascending.
  static std::array<int, kLevels> levels() { return {1, 2, 3, 4, 5}; }
};

// The frame-rate ladder of the "Ours" scheme: the original rate plus three
// reduced versions (10%, 20%, 30% fewer frames), indexed 1..F with F = the
// original (highest) frame rate, matching the paper's indexing convention.
class FrameRateLadder {
 public:
  explicit FrameRateLadder(double original_fps = 30.0);

  static constexpr std::size_t kOptions = 4;

  // index in [1, kOptions]; kOptions = the original rate, lower indexes are
  // the reduced versions (1 -> 30% reduction).
  double fps(std::size_t index) const;

  // f / f_m in (0, 1].
  double ratio(std::size_t index) const;

 private:
  double original_fps_;
};

}  // namespace ps360::video
