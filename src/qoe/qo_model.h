// The perceived-quality model Qo — Eq. 3 and Eq. 4 of the paper.
//
// Qo is an ITU-T G.1070-style logistic in the content features and bitrate:
//
//   Qo(SI, TI, b) = 100 / (1 + e^{-(c1 + c2 SI + c3 TI + c4 b)})
//
// with coefficients fitted against VMAF (Table II). Higher spatial detail
// helps (c2 > 0), higher motion hurts at a fixed bitrate (c3 < 0), bitrate
// helps (c4 > 0).
//
// Reduced frame rates scale Qo by the inverted-exponential factor
//
//   g(f) = (1 - e^{-α f/fm}) / (1 - e^{-α}),   α = S_fov / TI   (Eq. 4)
//
// where S_fov is the view-switching speed (Eq. 5): the faster the user is
// switching views — and the more static the content — the less the frame
// rate matters to perception.
#pragma once

#include "util/units.h"

namespace ps360::qoe {

struct QoParams {
  double c1 = -0.2163;  // Table II
  double c2 = 0.0581;
  double c3 = -0.1578;
  double c4 = 0.7821;
};

class QoModel {
 public:
  // `bitrate_scale` maps the caller's bitrate units (our simulator's
  // FoV-normalized Mbps) into the normalized b units the Table II fit uses.
  explicit QoModel(QoParams params = {}, double bitrate_scale = 1.0);

  const QoParams& params() const { return params_; }
  double bitrate_scale() const { return bitrate_scale_; }

  // Eq. 3. bitrate >= 0; result in (0, 100).
  double qo(double si, double ti, util::Mbps bitrate) const;

  // Eq. 4 frame-rate sensitivity: alpha = gain * s_fov / ti (clamped away
  // from 0). The gain converts between the switching-speed and TI units —
  // Eq. 4 is dimensionful, and our synthetic TI scale (2..80) runs higher
  // than the P.910 values behind the paper's fit. kDefaultAlphaGain is
  // calibrated so a user at the Fig. 5 median speed on average-motion
  // content tolerates a 10-20% frame-rate reduction within the ε = 5%
  // budget, matching the paper's reported headroom.
  static constexpr double kDefaultAlphaGain = 6.0;
  static double alpha(util::DegPerSec s_fov, double ti,
                      double gain = kDefaultAlphaGain);

  // The frame-rate quality factor g(f) in (0, 1]; frame_ratio = f / fm.
  // alpha -> 0 degrades toward g = frame_ratio (every frame matters);
  // alpha -> inf approaches g = 1 (frame rate barely matters).
  static double frame_rate_factor(double alpha, double frame_ratio);

  // Pano-style perceptual sensitivity (arXiv:1911.04139) in (0, 1]: how much
  // of a quality difference the viewer actually registers given the viewport
  // switching speed and the content. Fast view switching masks detail
  // (motion blur on the retina), and low-spatial-detail content (our SI
  // standing in for Pano's luminance/DoF terms) gives quality less to act
  // on; high motion (TI) adds further masking. A Pano-like planner multiplies
  // its *predicted* Qo by this factor so bits flow to segments where quality
  // is perceptible; delivered-QoE accounting stays on the unweighted Eq. 3.
  static double perceptual_sensitivity(util::DegPerSec s_fov, double si, double ti);

 private:
  QoParams params_;
  double bitrate_scale_;
};

}  // namespace ps360::qoe
