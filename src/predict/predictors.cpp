#include "predict/predictors.h"

#include <array>
#include <string>

#include "util/check.h"

namespace ps360::predict {

const std::string& predictor_name(PredictorKind kind) {
  static const std::array<std::string, kPredictorKindCount> names = {
      "hold", "linear", "ridge", "oracle"};
  const auto index = static_cast<std::size_t>(kind);
  PS360_CHECK(index < names.size());
  return names[index];
}

ViewportPredictorConfig make_predictor_config(PredictorKind kind,
                                              ViewportPredictorConfig base) {
  switch (kind) {
    case PredictorKind::kLinear:
      base.poly_degree = 1;
      base.lambda = 0.0;
      return base;
    // Hold and the oracle bypass the regression (see predict_with); their
    // config only reaches recent_switching_speed, which reads
    // history_seconds alone.
    case PredictorKind::kHold:
    case PredictorKind::kRidge:
    case PredictorKind::kOracle:
      return base;
  }
  throw std::invalid_argument("unknown predictor kind");
}

geometry::EquirectPoint predict_with(PredictorKind kind, const trace::HeadTrace& trace,
                                     double now_t, double target_t,
                                     ViewportPredictorConfig base) {
  if (kind == PredictorKind::kHold) {
    PS360_CHECK(target_t >= now_t);
    return trace.center_at(now_t);
  }
  if (kind == PredictorKind::kOracle) {
    PS360_CHECK(target_t >= now_t);
    return trace.center_at(target_t);  // ground truth, deliberately acausal
  }
  const ViewportPredictor predictor(make_predictor_config(kind, base));
  return predictor.predict(trace, now_t, target_t);
}

double mean_prediction_error(PredictorKind kind, const trace::HeadTrace& trace,
                             util::Seconds horizon, util::Seconds stride,
                             ViewportPredictorConfig base) {
  const double horizon_s = horizon.value();
  const double stride_s = stride.value();
  PS360_CHECK(horizon_s > 0.0);
  PS360_CHECK(stride_s > 0.0);
  double total = 0.0;
  std::size_t count = 0;
  for (double now = base.history_seconds + 1.0; now + horizon_s < trace.duration();
       now += stride_s) {
    const auto predicted = predict_with(kind, trace, now, now + horizon_s, base);
    total +=
        geometry::angular_distance(predicted, trace.center_at(now + horizon_s))
            .value();
    ++count;
  }
  PS360_CHECK_MSG(count > 0, "trace too short for this horizon");
  return total / static_cast<double>(count);
}

}  // namespace ps360::predict
