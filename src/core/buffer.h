// The playback-buffer dynamics of Eq. 6, shared by the MPC's DP transitions
// and the streaming client:
//
//   Δt_k   = max(B_k - β, 0)                      (wait above the threshold)
//   stall  = max(d - (B_k - Δt_k), 0)             (download outlasts buffer)
//   B_{k+1} = max(B_k - Δt_k - d, 0) + L
//
// where d is the download time of segment k. The DP additionally quantises
// buffer levels to the paper's 500 ms grid, capped at β + L (the most the
// buffer can hold right after a download that began at the wait threshold).
#pragma once

#include <cstddef>

#include "util/units.h"

namespace ps360::core {

// Most buffer states the MPC's DP may sweep: a grid passes when
// bucket_count() = lround((β + L) / q) + 1 stays within it. The repo's quanta
// (0.25–1 s) need at most 17, so this only stops a quantum small enough to
// exhaust memory.
inline constexpr double kMaxBufferStates = 4096.0;

struct BufferStep {
  double wait_s = 0.0;         // Δt spent before the request
  double stall_s = 0.0;        // playback stall caused by the download
  double next_buffer_s = 0.0;  // B_{k+1}
};

class BufferModel {
 public:
  // segment_seconds = L, threshold_s = β, quantum_s = the DP discretisation.
  BufferModel(util::Seconds segment_seconds, util::Seconds threshold_s,
              util::Seconds quantum_s);

  double segment_seconds() const { return segment_seconds_; }
  double threshold_s() const { return threshold_s_; }
  double quantum_s() const { return quantum_s_; }
  double cap_s() const { return threshold_s_ + segment_seconds_; }

  // One Eq. 6 step from buffer level `buffer_s` with a download of
  // `download_s` seconds (exact arithmetic, used by the client).
  BufferStep advance(util::Seconds buffer_s, util::Seconds download_s) const;

  // The same step with the resulting buffer quantised (used by the DP).
  BufferStep advance_quantized(util::Seconds buffer_s,
                               util::Seconds download_s) const;

  // Snap a buffer level to the DP grid (clamped to [0, cap]).
  double quantize(util::Seconds buffer_s) const;

  // Grid index of a (quantised) buffer level; number of grid states.
  int bucket_of(util::Seconds buffer_s) const;
  std::size_t bucket_count() const;

  // Buffer level (seconds) of a grid index — the inverse of bucket_of on the
  // grid. Used to size and address the MPC's dense DP tables.
  double level_of(int bucket) const;

 private:
  double segment_seconds_;
  double threshold_s_;
  double quantum_s_;
};

}  // namespace ps360::core
