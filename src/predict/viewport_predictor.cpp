#include "predict/viewport_predictor.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/matrix.h"

namespace ps360::predict {

using geometry::EquirectPoint;

ViewportPredictor::ViewportPredictor(ViewportPredictorConfig config)
    : config_(config) {
  PS360_CHECK(config_.history_seconds > 0.0);
  PS360_CHECK(config_.poly_degree >= 1 && config_.poly_degree <= 4);
  PS360_CHECK(config_.lambda >= 0.0);
  PS360_CHECK(config_.max_horizon_s > 0.0);
}

EquirectPoint ViewportPredictor::predict(const trace::HeadTrace& trace, double now_t,
                                         double target_t) const {
  PS360_CHECK(target_t >= now_t);
  const double horizon = std::min(target_t - now_t, config_.max_horizon_s);
  const double t0 = now_t - config_.history_seconds;

  // Collect the window [t0, now_t], unwrapping longitude as we go.
  const auto window = trace.samples_in(t0, now_t);
  std::vector<double> times, xs_unwrapped, ys;
  times.reserve(window.size());
  xs_unwrapped.reserve(window.size());
  ys.reserve(window.size());
  double x_acc = 0.0;
  bool first = true;
  double prev_x = 0.0;
  for (const auto& s : window) {
    if (first) {
      x_acc = s.center.x;
      first = false;
    } else {
      x_acc += geometry::wrap_delta(geometry::Degrees(s.center.x),
                                    geometry::Degrees(prev_x))
                   .value();
    }
    prev_x = s.center.x;
    times.push_back(s.t - now_t);  // in [-W, 0]
    xs_unwrapped.push_back(x_acc);
    ys.push_back(s.center.y);
  }
  if (times.size() < config_.poly_degree + 1) {
    // Not enough history: hold the last known center.
    return trace.center_at(now_t);
  }

  const std::size_t n = times.size();
  const std::size_t p = config_.poly_degree + 1;
  // Centre the time basis at the window midpoint: over a symmetric window t
  // and t^2 are uncorrelated, so the ridge penalty shrinks real curvature
  // instead of tearing collinear coefficients apart (which would wreck the
  // extrapolation).
  double t_mid = 0.0;
  for (double t : times) t_mid += t;
  t_mid /= static_cast<double>(n);
  util::Matrix design(n, p);
  for (std::size_t i = 0; i < n; ++i) {
    double pow_t = 1.0;
    for (std::size_t j = 0; j < p; ++j) {
      design(i, j) = pow_t;
      pow_t *= times[i] - t_mid;
    }
  }
  const double eval_t = horizon - t_mid;
  // The intercept column is unpenalised (shrinking it toward zero would drag
  // the whole prediction toward the origin); only the trend coefficients get
  // the ridge penalty. The target is centred for numerical conditioning.
  std::vector<double> lambdas(p, config_.lambda);
  lambdas[0] = 0.0;

  auto extrapolate = [&](const std::vector<double>& series) {
    double mean = 0.0;
    for (double v : series) mean += v;
    mean /= static_cast<double>(series.size());
    std::vector<double> centred(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) centred[i] = series[i] - mean;
    const std::vector<double> w = util::ridge_solve(design, centred, lambdas);
    double value = mean;
    double pow_t = 1.0;
    for (std::size_t j = 0; j < p; ++j) {
      value += w[j] * pow_t;
      pow_t *= eval_t;
    }
    return value;
  };

  const double x_pred = extrapolate(xs_unwrapped);
  const double y_pred = std::clamp(extrapolate(ys), 0.0, 180.0);
  return EquirectPoint{geometry::wrap360(geometry::Degrees(x_pred)).value(), y_pred};
}

double ViewportPredictor::recent_switching_speed(const trace::HeadTrace& trace,
                                                 double now_t) const {
  const double t0 = std::max(now_t - config_.history_seconds, 0.0);
  if (now_t <= t0 + 1e-9) return 0.0;
  return trace.switching_speed(t0, now_t);
}

}  // namespace ps360::predict
