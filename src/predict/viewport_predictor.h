// Viewport prediction with ridge regression (Section IV-B).
//
// The headset reports the viewing center at 50 Hz; the recent (x, y) series
// is regressed on a short polynomial time basis with an L2 penalty (ridge is
// "more robust to deal with overfitting" than OLS on this noisy, short
// window), and the fitted trend is extrapolated to the playback time of the
// segment about to be downloaded. Longitude is unwrapped before fitting so a
// gaze crossing 360° does not tear the series apart.
#pragma once

#include "trace/head_trace.h"

namespace ps360::predict {

// Extrapolation horizon cap (seconds): predict() clamps absurd targets.
inline constexpr double kMaxHorizonS = 4.0;

struct ViewportPredictorConfig {
  double history_seconds = 1.0;  // regression window
  std::size_t poly_degree = 2;   // 1 + t + t^2 basis
  double lambda = 0.1;           // ridge penalty
};

class ViewportPredictor {
 public:
  explicit ViewportPredictor(ViewportPredictorConfig config = {});

  const ViewportPredictorConfig& config() const { return config_; }

  // Predict the viewing center at `target_t` using only trace samples at or
  // before `now_t`. target_t >= now_t.
  geometry::EquirectPoint predict(const trace::HeadTrace& trace, double now_t,
                                  double target_t) const;

  // Estimated view-switching speed (deg/s) over the most recent window — the
  // S_fov the controller plugs into Eq. 4 when planning.
  double recent_switching_speed(const trace::HeadTrace& trace, double now_t) const;

 private:
  ViewportPredictorConfig config_;
};

}  // namespace ps360::predict
