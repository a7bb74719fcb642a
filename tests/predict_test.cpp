// Tests for the predict module: ridge-regression viewport prediction
// (including longitude unwrapping and horizon behaviour), the harmonic-mean
// bandwidth estimator, and the tile-visibility probabilities behind the
// robust competitor allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "predict/bandwidth_estimators.h"
#include "predict/predictors.h"
#include "predict/viewport_predictor.h"
#include "predict/visibility.h"
#include "trace/head_synth.h"
#include "trace/video_catalog.h"
#include "util/check.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"

#include "ghosh_reference.h"

namespace ps360::predict {
namespace {

using trace::HeadSample;
using trace::HeadTrace;

HeadTrace linear_motion_trace(double x0, double speed_x, double y0, double speed_y,
                              double duration, double rate_hz = 50.0) {
  std::vector<HeadSample> samples;
  const double dt = 1.0 / rate_hz;
  for (double t = 0.0; t <= duration + 1e-9; t += dt) {
    samples.push_back(HeadSample{
        t, geometry::EquirectPoint::make(geometry::Degrees(x0 + speed_x * t), geometry::Degrees(std::clamp(y0 + speed_y * t, 0.0, 180.0)))});
  }
  return HeadTrace(1, 0, std::move(samples));
}

TEST(ViewportPredictorTest, ExtrapolatesLinearMotion) {
  const auto trace = linear_motion_trace(100.0, 20.0, 90.0, 0.0, 10.0);
  const ViewportPredictor predictor;
  // At t=5 moving 20 deg/s: at t=6 expect x ~ 220.
  const auto predicted = predictor.predict(trace, 5.0, 6.0);
  EXPECT_NEAR(predicted.x, 220.0, 2.0);
  EXPECT_NEAR(predicted.y, 90.0, 1.0);
}

TEST(ViewportPredictorTest, HandlesWrapDuringHistory) {
  // Motion crossing 360: unwrapping must keep the trend intact.
  const auto trace = linear_motion_trace(350.0, 15.0, 90.0, 0.0, 10.0);
  const ViewportPredictor predictor;
  // At t=2 the center is at 350+30=20 (wrapped); at t=3 expect 35.
  const auto predicted = predictor.predict(trace, 2.0, 3.0);
  EXPECT_LT(geometry::circular_distance(geometry::Degrees(predicted.x), geometry::Degrees(35.0)).value(), 2.0);
}

TEST(ViewportPredictorTest, StationaryGazeStaysPut) {
  const auto trace = linear_motion_trace(123.0, 0.0, 77.0, 0.0, 10.0);
  const ViewportPredictor predictor;
  const auto predicted = predictor.predict(trace, 5.0, 7.0);
  EXPECT_NEAR(predicted.x, 123.0, 0.5);
  EXPECT_NEAR(predicted.y, 77.0, 0.5);
}

TEST(ViewportPredictorTest, ClampsLatitudePrediction) {
  // Strong downward trend must not leave the sphere.
  const auto trace = linear_motion_trace(10.0, 0.0, 170.0, 8.0, 10.0);
  const ViewportPredictor predictor;
  const auto predicted = predictor.predict(trace, 1.0, 4.0);
  EXPECT_LE(predicted.y, 180.0);
}

TEST(ViewportPredictorTest, ShortHistoryFallsBackToHold) {
  const auto trace = linear_motion_trace(100.0, 20.0, 90.0, 0.0, 10.0);
  const ViewportPredictor predictor;
  // now_t = 0: no history window at all -> hold the current center.
  const auto predicted = predictor.predict(trace, 0.0, 1.0);
  EXPECT_NEAR(predicted.x, 100.0, 1.0);
}

TEST(ViewportPredictorTest, RejectsBackwardTarget) {
  const auto trace = linear_motion_trace(100.0, 0.0, 90.0, 0.0, 10.0);
  const ViewportPredictor predictor;
  EXPECT_THROW(predictor.predict(trace, 5.0, 4.0), std::invalid_argument);
}

TEST(ViewportPredictorTest, ShortHorizonBeatsLongHorizonOnRealTraces) {
  // The paper's rationale for a small buffer: near-future predictions are
  // far more accurate. Verify on synthetic head traces.
  const trace::HeadTraceSynthesizer synth(42);
  const ViewportPredictor predictor;
  double err_short = 0.0, err_long = 0.0;
  int count = 0;
  for (int u = 0; u < 4; ++u) {
    const auto head = synth.synthesize(trace::test_videos()[7], u);
    for (double now = 5.0; now < 120.0; now += 4.0) {
      const auto p_short = predictor.predict(head, now, now + 0.5);
      const auto p_long = predictor.predict(head, now, now + 3.0);
      err_short += geometry::wrapped_distance(p_short, head.center_at(now + 0.5));
      err_long += geometry::wrapped_distance(p_long, head.center_at(now + 3.0));
      ++count;
    }
  }
  EXPECT_LT(err_short / count, err_long / count);
  // Short-horizon error small relative to the 100-degree FoV.
  EXPECT_LT(err_short / count, 15.0);
}

TEST(ViewportPredictorTest, RecentSwitchingSpeedTracksMotion) {
  const auto fast = linear_motion_trace(0.0, 40.0, 90.0, 0.0, 10.0);
  const auto slow = linear_motion_trace(0.0, 2.0, 90.0, 0.0, 10.0);
  const ViewportPredictor predictor;
  EXPECT_NEAR(predictor.recent_switching_speed(fast, 5.0), 40.0, 2.0);
  EXPECT_NEAR(predictor.recent_switching_speed(slow, 5.0), 2.0, 1.0);
  EXPECT_DOUBLE_EQ(predictor.recent_switching_speed(fast, 0.0), 0.0);
}

// predict() before its window was binary-searched scanned the whole trace
// for the samples in [now - W, now]. Everything after the window (unwrap,
// ridge fit, extrapolation) is unchanged, so the reference feeds the
// scanned window to the predictor as a trace of its own; a window too short
// to fit holds the full trace's center, as predict() does.
geometry::EquirectPoint predict_full_scan(const ViewportPredictor& predictor,
                                          const HeadTrace& trace, double now,
                                          double target) {
  const double t0 = now - predictor.config().history_seconds;
  std::vector<HeadSample> window;
  for (const auto& s : trace.samples()) {
    if (s.t < t0 || s.t > now) continue;
    window.push_back(s);
  }
  if (window.size() < predictor.config().poly_degree + 1) return trace.center_at(now);
  return predictor.predict(HeadTrace(trace.video_id(), trace.user_id(), std::move(window)),
                           now, target);
}

// Irregular gaps of 1/64 to 2 s on a dyadic time grid, so now - W lands
// exactly on a sample time when now = sample + W; the longitude random-walks
// across the 0/360 seam.
HeadTrace sparse_dyadic_trace(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<HeadSample> samples;
  double t = 0.5, x = 340.0;
  for (int i = 0; i < 150; ++i) {
    x += rng.uniform(-30.0, 30.0);
    samples.push_back(HeadSample{t, geometry::EquirectPoint::make(
                                        geometry::Degrees(x),
                                        geometry::Degrees(rng.uniform(10.0, 170.0)))});
    t += static_cast<double>(1 + rng.uniform_index(128)) / 64.0;
  }
  return HeadTrace(1, 0, std::move(samples));
}

TEST(ViewportPredictorTest, WindowMatchesFullScanReference) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  trace::VideoInfo video = trace::test_videos()[4];
  video.duration_s = 20.0;
  const HeadTrace dense = trace::HeadTraceSynthesizer(42).synthesize(video, 2);
  const HeadTrace sparse = sparse_dyadic_trace(5);
  util::Rng rng(31);
  for (const HeadTrace* trace : {&dense, &sparse}) {
    const auto& s = trace->samples();
    for (const double history : {0.5, 1.0, 2.5}) {
      for (const std::size_t degree : {1u, 2u}) {
        ViewportPredictorConfig config;
        config.history_seconds = history;
        config.poly_degree = degree;
        const ViewportPredictor predictor(config);
        // Before the first and after the last sample, then seeded times:
        // on a sample (t1 exact), one window after a sample (t0 exact), and
        // anywhere.
        std::vector<double> nows = {s.front().t - 3.0, s.front().t - history,
                                    s.front().t,       s.back().t,
                                    s.back().t + 0.3,  s.back().t + history,
                                    s.back().t + 5.0};
        for (int k = 0; k < 120; ++k) {
          const double sample_t = s[rng.uniform_index(s.size())].t;
          nows.push_back(k % 3 == 0   ? sample_t
                         : k % 3 == 1 ? sample_t + history
                                      : rng.uniform(s.front().t - 1.0, s.back().t + 1.0));
        }
        for (const double now : nows) {
          const double target = now + rng.uniform(0.0, 5.0);
          const auto got = predictor.predict(*trace, now, target);
          const auto want = predict_full_scan(predictor, *trace, now, target);
          ASSERT_EQ(bits(got.x), bits(want.x)) << "now " << now << " W " << history;
          ASSERT_EQ(bits(got.y), bits(want.y)) << "now " << now << " W " << history;
        }
      }
    }
  }
}

// The Cholesky solve predict() used to call, with its separate forward (y)
// and back (x) vectors: util::cholesky_solve as it stood.
std::vector<double> cholesky_solve_reference(const util::Matrix& a,
                                             const std::vector<double>& b) {
  const std::size_t n = a.rows();
  util::Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        PS360_CHECK_MSG(sum > 0.0, "matrix is not positive definite");
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

// predict() before it summed one normal matrix on the stack: it copied the
// window into vectors, built the n x p design matrix X, and per axis took a
// centred copy of the series and ran the ridge solve, which transposed X,
// formed X^T X (skipping zero entries of X^T, as the matrix product did),
// added the penalties, formed X^T y and solved by Cholesky. The rewrite must
// match it bit for bit.
geometry::EquirectPoint predict_allocating_reference(const ViewportPredictorConfig& config,
                                                     const HeadTrace& trace, double now_t,
                                                     double target_t) {
  const double horizon = std::min(target_t - now_t, kMaxHorizonS);
  std::vector<double> times, xs_unwrapped, ys;
  double x_acc = 0.0;
  bool first = true;
  double prev_x = 0.0;
  for (const auto& s : trace.samples_in(now_t - config.history_seconds, now_t)) {
    if (first) {
      x_acc = s.center.x;
      first = false;
    } else {
      x_acc += geometry::wrap_delta(geometry::Degrees(s.center.x), geometry::Degrees(prev_x))
                   .value();
    }
    prev_x = s.center.x;
    times.push_back(s.t - now_t);
    xs_unwrapped.push_back(x_acc);
    ys.push_back(s.center.y);
  }
  if (times.size() < config.poly_degree + 1) return trace.center_at(now_t);
  const std::size_t n = times.size();
  const std::size_t p = config.poly_degree + 1;
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
  std::vector<double> lambdas(p, config.lambda);
  lambdas[0] = 0.0;
  const auto extrapolate = [&](const std::vector<double>& series) {
    double mean = 0.0;
    for (double v : series) mean += v;
    mean /= static_cast<double>(series.size());
    std::vector<double> centred(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) centred[i] = series[i] - mean;
    util::Matrix xt(p, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < p; ++c) xt(c, r) = design(r, c);
    util::Matrix normal(p, p);
    for (std::size_t r = 0; r < p; ++r) {
      for (std::size_t k = 0; k < n; ++k) {
        const double a = xt(r, k);
        if (a == 0.0) continue;
        for (std::size_t c = 0; c < p; ++c) normal(r, c) += a * design(k, c);
      }
    }
    for (std::size_t i = 0; i < p; ++i) normal(i, i) += lambdas[i];
    std::vector<double> rhs(p, 0.0);
    for (std::size_t r = 0; r < p; ++r)
      for (std::size_t c = 0; c < n; ++c) rhs[r] += xt(r, c) * centred[c];
    const std::vector<double> w = cholesky_solve_reference(normal, rhs);
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
  return geometry::EquirectPoint{geometry::wrap360(geometry::Degrees(x_pred)).value(),
                                 y_pred};
}

// 50 Hz, 12 s: the gaze sweeps across the 0/360 seam while its colatitude
// sits at 0 for the first 4 s and at 180 for the last 4 s, so windows there
// fit a y series with no trend at all.
HeadTrace pole_trace() {
  std::vector<HeadSample> samples;
  for (int i = 0; i <= 600; ++i) {
    const double t = i / 50.0;
    const double y = t < 4.0 ? 0.0 : t > 8.0 ? 180.0 : 45.0 * (t - 4.0);
    samples.push_back(HeadSample{t, geometry::EquirectPoint::make(
                                        geometry::Degrees(300.0 + 13.0 * t),
                                        geometry::Degrees(y))});
  }
  return HeadTrace(1, 0, std::move(samples));
}

TEST(ViewportPredictorTest, MatchesAllocatingRidgeReference) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  trace::VideoInfo video = trace::test_videos()[4];
  video.duration_s = 20.0;
  const HeadTrace dense = trace::HeadTraceSynthesizer(42).synthesize(video, 2);
  const HeadTrace sparse = sparse_dyadic_trace(5);
  const HeadTrace poles = pole_trace();
  util::Rng rng(47);
  std::size_t fitted = 0, held = 0, singular = 0;
  for (const HeadTrace* trace : {&dense, &sparse, &poles}) {
    const auto& s = trace->samples();
    // Before the first sample, inside the first second, the two poles'
    // stretches, then seeded sample times and arbitrary times.
    std::vector<double> nows = {s.front().t - 1.0, s.front().t + 0.1, s.front().t + 0.5,
                                s.front().t + 0.9, 2.0, 3.5, 10.0, 11.5};
    for (int k = 0; k < 40; ++k) {
      nows.push_back(k % 2 == 0 ? s[rng.uniform_index(s.size())].t
                                : rng.uniform(s.front().t, s.back().t + 1.0));
    }
    for (std::size_t degree = 1; degree <= 4; ++degree) {
      for (const double lambda : {0.0, 0.1, 1e9}) {
        for (const double history : {0.5, 1.0, 2.5}) {
          const ViewportPredictorConfig config{history, degree, lambda};
          const ViewportPredictor predictor(config);
          for (const double now : nows) {
            const double target = now + rng.uniform(0.0, 5.0);
            const std::size_t n = trace->samples_in(now - history, now).size();
            geometry::EquirectPoint want;
            try {
              want = predict_allocating_reference(config, *trace, now, target);
            } catch (const std::invalid_argument&) {
              // A λ = 0 fit on too few distinct times: both must refuse it.
              EXPECT_THROW(predictor.predict(*trace, now, target), std::invalid_argument);
              ++singular;
              continue;
            }
            const auto got = predictor.predict(*trace, now, target);
            ASSERT_EQ(bits(got.x), bits(want.x))
                << "now " << now << " degree " << degree << " lambda " << lambda
                << " W " << history;
            ASSERT_EQ(bits(got.y), bits(want.y))
                << "now " << now << " degree " << degree << " lambda " << lambda
                << " W " << history;
            ++(n < degree + 1 ? held : fitted);
          }
        }
      }
    }
  }
  // Both branches ran: fits, and windows too short to fit.
  EXPECT_GT(fitted, 1000u);
  EXPECT_GT(held, 100u);
  EXPECT_LT(singular, fitted / 10);
}

// Ridge regression's three properties, through the predictor that now owns
// the solve: with lambda = 0 it is least squares and recovers an exact
// polynomial; the penalty shrinks the trend toward the hold; and the
// intercept is unpenalised, so an overwhelming penalty predicts the
// window's mean rather than 0.
TEST(ViewportPredictorTest, RidgeFitsExactlyAndShrinksOnlyTheTrend) {
  std::vector<HeadSample> samples;
  for (int i = 0; i <= 500; ++i) {
    const double t = i / 50.0;
    samples.push_back(HeadSample{
        t, geometry::EquirectPoint::make(geometry::Degrees(20.0 + 12.0 * t + 1.5 * t * t),
                                         geometry::Degrees(90.0))});
  }
  const HeadTrace quadratic(1, 0, std::move(samples));
  const auto x_at = [](double t) { return 20.0 + 12.0 * t + 1.5 * t * t; };
  const auto predict_x = [&](double lambda) {
    const ViewportPredictor predictor({1.0, 2, lambda});
    return predictor.predict(quadratic, 6.0, 7.0).x;
  };
  EXPECT_NEAR(predict_x(0.0), x_at(7.0), 1e-6);
  double window_mean = 0.0;
  const auto window = quadratic.samples_in(5.0, 6.0);
  for (const auto& s : window) window_mean += s.center.x;
  window_mean /= static_cast<double>(window.size());
  EXPECT_NEAR(predict_x(1e9), window_mean, 1e-3);
  const double shrunk = predict_x(1.0);
  EXPECT_GT(shrunk, window_mean + 1.0);
  EXPECT_LT(shrunk, x_at(7.0) - 1.0);
}

TEST(ViewportPredictorTest, ConfigValidation) {
  ViewportPredictorConfig config;
  config.history_seconds = 0.0;
  EXPECT_THROW(ViewportPredictor{config}, std::invalid_argument);
  config = {};
  config.poly_degree = 9;
  EXPECT_THROW(ViewportPredictor{config}, std::invalid_argument);
  config = {};
  config.lambda = -1.0;
  EXPECT_THROW(ViewportPredictor{config}, std::invalid_argument);
}

// ------------------------------------------------------ HarmonicEstimator

// The paper's estimator, kHarmonic, built through the factory.
std::unique_ptr<BandwidthEstimator> harmonic(std::size_t window,
                                             double initial = 500e3) {
  return make_bandwidth_estimator(BandwidthEstimatorKind::kHarmonic, window,
                                  util::BytesPerSec(initial));
}

TEST(HarmonicEstimatorTest, PriorBeforeObservations) {
  const auto estimator = harmonic(5, 123.0);
  EXPECT_DOUBLE_EQ(estimator->estimate(), 123.0);
}

TEST(HarmonicEstimatorTest, HarmonicMeanOfWindow) {
  const auto estimator = harmonic(3);
  estimator->observe(util::BytesPerSec(2.0));
  estimator->observe(util::BytesPerSec(4.0));
  EXPECT_DOUBLE_EQ(estimator->estimate(), 2.0 / (1.0 / 2.0 + 1.0 / 4.0));
}

TEST(HarmonicEstimatorTest, WindowEvictsOldest) {
  const auto estimator = harmonic(2);
  estimator->observe(util::BytesPerSec(1.0));
  estimator->observe(util::BytesPerSec(10.0));
  estimator->observe(util::BytesPerSec(10.0));  // evicts the 1.0
  EXPECT_DOUBLE_EQ(estimator->estimate(), 10.0);
  // Two entries stay: the next observation evicts the first 10.0 only.
  estimator->observe(util::BytesPerSec(2.5));
  EXPECT_DOUBLE_EQ(estimator->estimate(), 2.0 / (1.0 / 10.0 + 1.0 / 2.5));
}

TEST(HarmonicEstimatorTest, DampsSpikesVsArithmeticMean) {
  const auto estimator = harmonic(5);
  const std::vector<double> rates = {4.0, 4.0, 4.0, 4.0, 40.0};
  for (double r : rates) estimator->observe(util::BytesPerSec(r));
  EXPECT_LT(estimator->estimate(), util::mean(rates));
}

TEST(HarmonicEstimatorTest, RejectsInvalid) {
  EXPECT_THROW(harmonic(0), std::invalid_argument);
  EXPECT_THROW(harmonic(5, 0.0), std::invalid_argument);
  const auto estimator = harmonic(5);
  try {
    estimator->observe(util::BytesPerSec(0.0));
    ADD_FAILURE() << "accepted a zero rate";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("> 0 bytes/s"), std::string::npos) << e.what();
  }
}

// A non-positive rate must not poison the harmonic mean (1/0 would make the
// estimate NaN/0 for the rest of the window); the estimator rejects it and
// keeps its previous state intact: one observation in the window.
TEST(HarmonicEstimatorTest, NonPositiveRateDoesNotPoisonState) {
  const auto estimator = harmonic(5);
  estimator->observe(util::BytesPerSec(8.0));
  EXPECT_THROW(estimator->observe(util::BytesPerSec(0.0)), std::invalid_argument);
  EXPECT_THROW(estimator->observe(util::BytesPerSec(-4.0)), std::invalid_argument);
  EXPECT_DOUBLE_EQ(estimator->estimate(), 8.0);
  estimator->observe(util::BytesPerSec(2.0));
  EXPECT_DOUBLE_EQ(estimator->estimate(), 2.0 / (1.0 / 8.0 + 1.0 / 2.0));
}

// ------------------------------------------------- Alternative predictors

TEST(PredictorKindTest, InvalidKindsThrowInsteadOfIndexingOutOfBounds) {
  EXPECT_THROW(predictor_name(static_cast<PredictorKind>(99)),
               std::invalid_argument);
  EXPECT_THROW(bandwidth_estimator_name(static_cast<BandwidthEstimatorKind>(99)),
               std::invalid_argument);
}

TEST(PredictorKindTest, NamesAndHoldSemantics) {
  EXPECT_EQ(predictor_name(PredictorKind::kRidge), "ridge");
  const auto trace = linear_motion_trace(100.0, 20.0, 90.0, 0.0, 10.0);
  // Hold predicts the current position regardless of horizon.
  const auto held = predict_with(PredictorKind::kHold, trace, 5.0, 8.0);
  EXPECT_NEAR(held.x, 200.0, 0.5);
  EXPECT_THROW(predict_with(PredictorKind::kHold, trace, 5.0, 4.0),
               std::invalid_argument);
}

TEST(PredictorKindTest, LinearTracksRampHoldDoesNot) {
  const auto trace = linear_motion_trace(100.0, 20.0, 90.0, 0.0, 10.0);
  const auto linear = predict_with(PredictorKind::kLinear, trace, 5.0, 6.0);
  EXPECT_NEAR(linear.x, 220.0, 1.0);
  const double err_linear =
      mean_prediction_error(PredictorKind::kLinear, trace, util::Seconds(1.0));
  const double err_hold = mean_prediction_error(PredictorKind::kHold, trace, util::Seconds(1.0));
  EXPECT_LT(err_linear, err_hold);
}

TEST(PredictorKindTest, RidgeCompetitiveOnRealTraces) {
  // On noisy synthetic head traces ridge should not lose badly to either
  // baseline at a 1-second horizon (the paper's motivation for ridge).
  const trace::HeadTraceSynthesizer synth(42);
  double ridge = 0.0, linear = 0.0, hold = 0.0;
  for (int u = 0; u < 3; ++u) {
    const auto head = synth.synthesize(trace::test_videos()[7], u);
    ridge += mean_prediction_error(PredictorKind::kRidge, head, util::Seconds(1.0), util::Seconds(2.0));
    linear += mean_prediction_error(PredictorKind::kLinear, head, util::Seconds(1.0), util::Seconds(2.0));
    hold += mean_prediction_error(PredictorKind::kHold, head, util::Seconds(1.0), util::Seconds(2.0));
  }
  EXPECT_LT(ridge, linear * 1.05);
  EXPECT_LT(ridge, hold * 1.3);
}

TEST(PredictorKindTest, OracleIsExactAndBeatsEveryone) {
  EXPECT_EQ(predictor_name(PredictorKind::kOracle), "oracle");
  const trace::HeadTraceSynthesizer synth(42);
  const auto head = synth.synthesize(trace::test_videos()[7], 1);
  EXPECT_NEAR(mean_prediction_error(PredictorKind::kOracle, head, util::Seconds(1.0), util::Seconds(2.0)), 0.0,
              1e-9);
  EXPECT_LT(mean_prediction_error(PredictorKind::kOracle, head, util::Seconds(1.0), util::Seconds(2.0)),
            mean_prediction_error(PredictorKind::kRidge, head, util::Seconds(1.0), util::Seconds(2.0)));
}

TEST(PredictorKindTest, ConfigFactoryShapes) {
  const auto linear_cfg = make_predictor_config(PredictorKind::kLinear);
  EXPECT_EQ(linear_cfg.poly_degree, 1u);
  EXPECT_DOUBLE_EQ(linear_cfg.lambda, 0.0);
  const auto ridge_cfg = make_predictor_config(PredictorKind::kRidge);
  EXPECT_EQ(ridge_cfg.poly_degree, 2u);
}

// ------------------------------------------- Alternative bandwidth models

TEST(BandwidthEstimatorsTest, LastFollowsLatestObservation) {
  const auto est = make_bandwidth_estimator(BandwidthEstimatorKind::kLast);
  est->observe(util::BytesPerSec(100.0));
  est->observe(util::BytesPerSec(250.0));
  EXPECT_DOUBLE_EQ(est->estimate(), 250.0);
}

TEST(BandwidthEstimatorsTest, MeanVsHarmonicOnSpikyInput) {
  const auto mean = make_bandwidth_estimator(BandwidthEstimatorKind::kMean, 5, util::BytesPerSec(1.0));
  const auto harmonic =
      make_bandwidth_estimator(BandwidthEstimatorKind::kHarmonic, 5, util::BytesPerSec(1.0));
  for (double r : {4.0, 4.0, 4.0, 4.0, 40.0}) {
    mean->observe(util::BytesPerSec(r));
    harmonic->observe(util::BytesPerSec(r));
  }
  // The harmonic mean damps the spike (the paper's rationale).
  EXPECT_LT(harmonic->estimate(), mean->estimate());
  EXPECT_NEAR(harmonic->estimate(), 5.0 / (4.0 / 4.0 + 1.0 / 40.0), 1e-9);
}

TEST(BandwidthEstimatorsTest, EwmaConvergesGeometrically) {
  const auto ewma =
      make_bandwidth_estimator(BandwidthEstimatorKind::kEwma, 5, util::BytesPerSec(1.0), 0.5);
  ewma->observe(util::BytesPerSec(100.0));  // first observation seeds directly
  EXPECT_DOUBLE_EQ(ewma->estimate(), 100.0);
  ewma->observe(util::BytesPerSec(200.0));
  EXPECT_DOUBLE_EQ(ewma->estimate(), 150.0);
  ewma->observe(util::BytesPerSec(200.0));
  EXPECT_DOUBLE_EQ(ewma->estimate(), 175.0);
}

TEST(BandwidthEstimatorsTest, AllReturnPriorBeforeData) {
  for (std::size_t k = 0; k < kBandwidthEstimatorKindCount; ++k) {
    const auto kind = static_cast<BandwidthEstimatorKind>(k);
    const auto est = make_bandwidth_estimator(kind, 5, util::BytesPerSec(777.0));
    EXPECT_DOUBLE_EQ(est->estimate(), 777.0) << bandwidth_estimator_name(kind);
    EXPECT_THROW(est->observe(util::BytesPerSec(0.0)), std::invalid_argument);
  }
}

// ------------------------------------------------------------- Visibility

TEST(VisibilityTest, ProbabilitiesAreInRangeAndPeakAtThePrediction) {
  const geometry::TileGrid grid(4, 8);
  const auto center = geometry::EquirectPoint::make(geometry::Degrees(180.0),
                                                    geometry::Degrees(90.0));
  const auto p = tile_visibility(grid, center, util::Degrees(100.0),
                                 util::Degrees(100.0), util::DegPerSec(0.0),
                                 util::Seconds(0.0));
  ASSERT_EQ(p.size(), grid.tile_count());
  for (const double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // A static gaze: the tile under the predicted center is near-certainly
  // visible, the antipodal tile near-certainly not.
  const auto at = grid.tile_at(center);
  EXPECT_GT(p[at.row * grid.cols() + at.col], 0.99);
  const auto far = grid.tile_at(geometry::EquirectPoint::make(
      geometry::Degrees(0.0), geometry::Degrees(90.0)));
  EXPECT_LT(p[far.row * grid.cols() + far.col], 0.05);
}

TEST(VisibilityTest, FasterSwitchingSpreadsProbabilityMass) {
  const geometry::TileGrid grid(4, 8);
  const auto center = geometry::EquirectPoint::make(geometry::Degrees(180.0),
                                                    geometry::Degrees(90.0));
  const auto slow = tile_visibility(grid, center, util::Degrees(100.0),
                                    util::Degrees(100.0), util::DegPerSec(5.0),
                                    util::Seconds(2.0));
  const auto fast = tile_visibility(grid, center, util::Degrees(100.0),
                                    util::Degrees(100.0), util::DegPerSec(120.0),
                                    util::Seconds(2.0));
  // The off-prediction tile gains visibility mass as the error spread grows;
  // the on-prediction tile loses certainty.
  const auto at = grid.tile_at(center);
  const auto far = grid.tile_at(geometry::EquirectPoint::make(
      geometry::Degrees(0.0), geometry::Degrees(90.0)));
  EXPECT_GT(fast[far.row * grid.cols() + far.col],
            slow[far.row * grid.cols() + far.col]);
  EXPECT_LT(fast[at.row * grid.cols() + at.col],
            slow[at.row * grid.cols() + at.col]);
}

TEST(VisibilityTest, LongitudeWrapInvariance) {
  // Shifting the predicted center by exactly one tile column permutes the
  // per-tile probabilities by one column — wraparound included.
  const geometry::TileGrid grid(4, 8);
  const double tile_w = grid.tile_width_deg();
  const auto a = tile_visibility(
      grid, geometry::EquirectPoint::make(geometry::Degrees(2.0), geometry::Degrees(80.0)),
      util::Degrees(100.0), util::Degrees(100.0), util::DegPerSec(30.0),
      util::Seconds(1.5));
  const auto b = tile_visibility(
      grid,
      geometry::EquirectPoint::make(geometry::Degrees(2.0 + tile_w), geometry::Degrees(80.0)),
      util::Degrees(100.0), util::Degrees(100.0), util::DegPerSec(30.0),
      util::Seconds(1.5));
  for (std::size_t row = 0; row < grid.rows(); ++row) {
    for (std::size_t col = 0; col < grid.cols(); ++col) {
      const std::size_t shifted = row * grid.cols() + (col + 1) % grid.cols();
      EXPECT_NEAR(a[row * grid.cols() + col], b[shifted], 1e-12);
    }
  }
}

// tile_visibility evaluates p_lon once per column and p_colat once per row;
// pinned bit for bit to the per-tile loop (tests/ghosh_reference.h) over
// seeded centers (the seam, tile edges and both poles among them), FoVs up
// to the full circle, speeds and horizons from zero to huge, and grids
// besides the paper's 4x8.
TEST(VisibilityTest, MatchesPerTileReference) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  util::Rng rng(0x715u);
  const double fixed_lons[] = {0.0, 360.0, 359.9999999, 1e-12, 180.0, 45.0, 22.5, -45.0};
  const double fixed_colats[] = {0.0, 180.0, 90.0, 45.0, 1e-12, 179.9999999};
  const double speeds[] = {0.0, 1e-9, 12.0, 200.0, 1e6, 1e300};
  const double horizons[] = {0.0, 0.5, 3.0, 1e300};
  const double fovs_h[] = {100.0, 360.0, 315.0, 1e-3, 250.0};
  const double fovs_v[] = {100.0, 180.0, 1e-3, 60.0};
  std::size_t cases = 0;
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{4, 8},
                                   {1, 1}, {3, 7}, {15, 30}}) {
    const geometry::TileGrid grid(rows, cols);
    for (int trial = 0; trial < 400; ++trial) {
      const double lon = rng.bernoulli(0.3) ? fixed_lons[rng.uniform_index(8)]
                                            : rng.uniform(-720.0, 720.0);
      const double colat = rng.bernoulli(0.3) ? fixed_colats[rng.uniform_index(6)]
                                              : rng.uniform(0.0, 180.0);
      const auto center =
          geometry::EquirectPoint::make(geometry::Degrees(lon), geometry::Degrees(colat));
      const util::Degrees fov_h(fovs_h[rng.uniform_index(5)]);
      const util::Degrees fov_v(fovs_v[rng.uniform_index(4)]);
      const util::DegPerSec speed(speeds[rng.uniform_index(6)]);
      const util::Seconds horizon(horizons[rng.uniform_index(4)]);
      VisibilityConfig config;
      if (rng.bernoulli(0.25)) {
        config.base_sigma_deg = rng.uniform(0.01, 40.0);
        config.speed_sigma_factor = rng.uniform(0.0, 2.0);
        config.max_sigma_deg = config.base_sigma_deg + rng.uniform(0.0, 100.0);
      }
      const std::vector<double> got =
          tile_visibility(grid, center, fov_h, fov_v, speed, horizon, config);
      const std::vector<double> want =
          reference::tile_visibility(grid, center, fov_h, fov_v, speed, horizon, config);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t t = 0; t < got.size(); ++t) {
        ASSERT_EQ(bits(got[t]), bits(want[t]))
            << "grid " << rows << "x" << cols << " trial " << trial << " tile " << t;
      }
      ++cases;
    }
  }
  EXPECT_EQ(cases, 1600u);
}

TEST(VisibilityTest, ValidatesArguments) {
  const geometry::TileGrid grid(4, 8);
  const auto center = geometry::EquirectPoint::make(geometry::Degrees(0.0),
                                                    geometry::Degrees(90.0));
  EXPECT_THROW(tile_visibility(grid, center, util::Degrees(0.0), util::Degrees(100.0),
                               util::DegPerSec(0.0), util::Seconds(0.0)),
               std::invalid_argument);
  EXPECT_THROW(tile_visibility(grid, center, util::Degrees(100.0), util::Degrees(100.0),
                               util::DegPerSec(-1.0), util::Seconds(0.0)),
               std::invalid_argument);
  VisibilityConfig bad;
  bad.max_sigma_deg = 1.0;  // below base_sigma_deg
  EXPECT_THROW(tile_visibility(grid, center, util::Degrees(100.0), util::Degrees(100.0),
                               util::DegPerSec(0.0), util::Seconds(0.0), bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace ps360::predict
