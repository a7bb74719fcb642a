#include "predict/viewport_predictor.h"

#include <algorithm>
#include <array>
#include <span>

#include "util/check.h"
#include "util/matrix.h"

namespace ps360::predict {

using geometry::EquirectPoint;

namespace {

// The constructor caps poly_degree at 4, so a fit has at most 5 terms.
constexpr std::size_t kMaxTerms = 5;

static_assert(kMaxHorizonS > 0.0);

}  // namespace

ViewportPredictor::ViewportPredictor(ViewportPredictorConfig config)
    : config_(config) {
  PS360_CHECK(config_.history_seconds > 0.0);
  PS360_CHECK(config_.poly_degree >= 1 && config_.poly_degree <= 4);
  PS360_CHECK(config_.lambda >= 0.0);
}

EquirectPoint ViewportPredictor::predict(const trace::HeadTrace& trace, double now_t,
                                         double target_t) const {
  PS360_CHECK(target_t >= now_t);
  const double horizon = std::min(target_t - now_t, kMaxHorizonS);
  const auto window = trace.samples_in(now_t - config_.history_seconds, now_t);
  const std::size_t n = window.size();
  const std::size_t p = config_.poly_degree + 1;
  // Not enough history: hold the last known center.
  if (n < p) return trace.center_at(now_t);

  // Both passes over the window unwrap longitude as they go.
  const auto unwrap = [&](std::size_t k, double x_prev) {
    if (k == 0) return window[0].center.x;
    return x_prev + geometry::wrap_delta(geometry::Degrees(window[k].center.x),
                                         geometry::Degrees(window[k - 1].center.x))
                        .value();
  };
  // Centre the time basis at the window midpoint: over a symmetric window t
  // and t^2 are uncorrelated, so the ridge penalty shrinks real curvature
  // instead of tearing collinear coefficients apart (which would wreck the
  // extrapolation). The targets are centred for numerical conditioning.
  double t_mid = 0.0, x_mean = 0.0, y_mean = 0.0, x = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    x = unwrap(k, x);
    t_mid += window[k].t - now_t;  // in [-W, 0]
    x_mean += x;
    y_mean += window[k].center.y;
  }
  t_mid /= static_cast<double>(n);
  x_mean /= static_cast<double>(n);
  y_mean /= static_cast<double>(n);

  // The design X does not depend on the axis, so one normal matrix
  // X^T X + diag(lambda) (lower triangle, all the factorisation reads) and
  // both right-hand sides X^T (v - mean) are summed in sample order. The
  // substitutions below turn each right-hand side into its axis' weights.
  std::array<double, kMaxTerms * kMaxTerms> normal{}, factor{};
  std::array<double, kMaxTerms> wx{}, wy{};
  for (std::size_t k = 0; k < n; ++k) {
    x = unwrap(k, x);
    std::array<double, kMaxTerms> row{};
    double pow_t = 1.0;
    for (std::size_t j = 0; j < p; ++j) {
      row[j] = pow_t;
      pow_t *= (window[k].t - now_t) - t_mid;
    }
    for (std::size_t r = 0; r < p; ++r) {
      wx[r] += row[r] * (x - x_mean);
      wy[r] += row[r] * (window[k].center.y - y_mean);
      if (row[r] == 0.0) continue;
      for (std::size_t c = 0; c <= r; ++c) normal[r * p + c] += row[r] * row[c];
    }
  }
  // The intercept is unpenalised (shrinking it toward zero would drag the
  // whole prediction toward the origin); only the trend coefficients get the
  // ridge penalty.
  for (std::size_t j = 0; j < p; ++j) normal[j * p + j] += j == 0 ? 0.0 : config_.lambda;
  const std::span<double> l(factor.data(), p * p);
  util::cholesky_factor(std::span(normal.data(), p * p), l, p);
  util::cholesky_substitute(l, p, std::span(wx.data(), p));
  util::cholesky_substitute(l, p, std::span(wy.data(), p));

  const double eval_t = horizon - t_mid;
  const auto extrapolate = [&](double mean, const std::array<double, kMaxTerms>& w) {
    double value = mean;
    double pow_t = 1.0;
    for (std::size_t j = 0; j < p; ++j) {
      value += w[j] * pow_t;
      pow_t *= eval_t;
    }
    return value;
  };
  const double x_pred = extrapolate(x_mean, wx);
  const double y_pred = std::clamp(extrapolate(y_mean, wy), 0.0, 180.0);
  return EquirectPoint{geometry::wrap360(geometry::Degrees(x_pred)).value(), y_pred};
}

double ViewportPredictor::recent_switching_speed(const trace::HeadTrace& trace,
                                                 double now_t) const {
  const double t0 = std::max(now_t - config_.history_seconds, 0.0);
  if (now_t <= t0 + 1e-9) return 0.0;
  return trace.switching_speed(t0, now_t);
}

}  // namespace ps360::predict
