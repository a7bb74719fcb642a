#include "qoe/qo_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps360::qoe {

QoModel::QoModel(QoParams params, double bitrate_scale)
    : params_(params), bitrate_scale_(bitrate_scale) {
  PS360_CHECK(bitrate_scale > 0.0);
}

double QoModel::qo(double si, double ti, util::Mbps bitrate) const {
  const double b_mbps = bitrate.value();
  PS360_CHECK(b_mbps >= 0.0);
  const double z = params_.c1 + params_.c2 * si + params_.c3 * ti +
                   params_.c4 * bitrate_scale_ * b_mbps;
  return 100.0 / (1.0 + std::exp(-z));
}

double QoModel::alpha(util::DegPerSec s_fov, double ti, double gain) {
  const double s_fov_deg_per_s = s_fov.value();
  PS360_CHECK(s_fov_deg_per_s >= 0.0);
  PS360_CHECK(ti > 0.0);
  PS360_CHECK(gain > 0.0);
  // Clamp away from zero: a perfectly static gaze still tolerates a little
  // temporal subsampling, and alpha = 0 is a removable singularity in g.
  return std::max(gain * s_fov_deg_per_s / ti, 1e-3);
}

double QoModel::frame_rate_factor(double alpha, double frame_ratio) {
  PS360_CHECK(alpha > 0.0);
  PS360_CHECK(frame_ratio > 0.0 && frame_ratio <= 1.0);
  if (alpha < 1e-6) return frame_ratio;  // limit of the expression as alpha -> 0
  const double num = 1.0 - std::exp(-alpha * frame_ratio);
  const double den = 1.0 - std::exp(-alpha);
  return std::clamp(num / den, 0.0, 1.0);
}

double QoModel::perceptual_sensitivity(util::DegPerSec s_fov, double si, double ti) {
  const double s_fov_deg_per_s = s_fov.value();
  PS360_CHECK(s_fov_deg_per_s >= 0.0);
  PS360_CHECK(si >= 0.0 && ti >= 0.0);
  // Half-sensitivity at 60 deg/s — about the Fig. 5 upper-quartile switching
  // speed, where Pano's user study reports JND-level masking of CRF steps.
  const double speed_term = 1.0 / (1.0 + s_fov_deg_per_s / 60.0);
  // Detail floor 0.6: even flat content shows blocking artifacts, so
  // sensitivity never drops below 60% on the content axis alone.
  const double detail_term = 0.6 + 0.4 * (si / (si + 20.0));
  // Temporal masking: motion at TI ~ 200 halves what is left.
  const double motion_term = 1.0 / (1.0 + ti / 200.0);
  return std::clamp(speed_term * detail_term * motion_term, 0.05, 1.0);
}

}  // namespace ps360::qoe
