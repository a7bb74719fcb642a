#include "qoe/qoe_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps360::qoe {

QoEModel::QoEModel(QoEWeights weights) : weights_(weights) {
  // Finite too: an infinite weight turns the first ∞ × 0 into NaN.
  PS360_CHECK(std::isfinite(weights.variation) && weights.variation >= 0.0);
  PS360_CHECK(std::isfinite(weights.rebuffer) && weights.rebuffer >= 0.0);
}

SegmentQoE QoEModel::segment(double qo, double prev_qo, util::Seconds download_time,
                             util::Seconds buffer_level) const {
  const double download_seconds = download_time.value();
  const double buffer_seconds = buffer_level.value();
  PS360_CHECK(qo >= 0.0 && qo <= 100.0);
  PS360_CHECK(prev_qo >= 0.0 && prev_qo <= 100.0);
  PS360_CHECK(download_seconds >= 0.0);
  PS360_CHECK(buffer_seconds >= 0.0);
  SegmentQoE s;
  s.qo = qo;
  s.variation = std::fabs(qo - prev_qo);
  const double stall = std::max(download_seconds - buffer_seconds, 0.0);
  const double buffer_floor =
      std::max(buffer_seconds, kMinBufferForRebuffer.value());
  s.rebuffer = stall / buffer_floor * qo;
  s.q = qo - weights_.variation * s.variation - weights_.rebuffer * s.rebuffer;
  return s;
}

SessionQoE SessionQoE::aggregate(const std::vector<SegmentQoE>& segments) {
  SessionQoE out;
  out.segments = segments.size();
  if (segments.empty()) return out;
  for (const auto& s : segments) {
    out.mean_qo += s.qo;
    out.mean_variation += s.variation;
    out.mean_rebuffer += s.rebuffer;
    out.mean_q += s.q;
  }
  const double n = static_cast<double>(segments.size());
  out.mean_qo /= n;
  out.mean_variation /= n;
  out.mean_rebuffer /= n;
  out.mean_q /= n;
  return out;
}

}  // namespace ps360::qoe
