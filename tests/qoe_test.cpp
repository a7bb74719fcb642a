// Tests for the qoe module: the Eq. 3 logistic and Table II coefficients,
// the Eq. 4 frame-rate factor, the full Eq. 2 QoE model, the synthetic VMAF
// dataset, and the Gauss-Newton fitter that regenerates Table II.
#include <gtest/gtest.h>

#include <cmath>

#include "qoe/fitter.h"
#include "qoe/qo_model.h"
#include "qoe/qoe_model.h"
#include "qoe/vmaf_synth.h"
#include "trace/video_catalog.h"

namespace ps360::qoe {
namespace {

// ---------------------------------------------------------------- QoModel

TEST(QoModelTest, TableTwoDefaults) {
  const QoParams p;
  EXPECT_DOUBLE_EQ(p.c1, -0.2163);
  EXPECT_DOUBLE_EQ(p.c2, 0.0581);
  EXPECT_DOUBLE_EQ(p.c3, -0.1578);
  EXPECT_DOUBLE_EQ(p.c4, 0.7821);
}

TEST(QoModelTest, LogisticKnownValue) {
  const QoModel model;
  // z = c1 + c2*50 + c3*25 + c4*4 = -0.2163 + 2.905 - 3.945 + 3.1284.
  const double z = -0.2163 + 0.0581 * 50.0 - 0.1578 * 25.0 + 0.7821 * 4.0;
  EXPECT_NEAR(model.qo(50.0, 25.0, util::Mbps(4.0)), 100.0 / (1.0 + std::exp(-z)), 1e-9);
}

TEST(QoModelTest, MonotoneInRegressors) {
  const QoModel model;
  // More bitrate -> better; more spatial detail -> better; more motion at a
  // fixed bitrate -> worse (c3 < 0).
  EXPECT_GT(model.qo(50.0, 25.0, util::Mbps(5.0)), model.qo(50.0, 25.0, util::Mbps(2.0)));
  EXPECT_GT(model.qo(70.0, 25.0, util::Mbps(3.0)), model.qo(40.0, 25.0, util::Mbps(3.0)));
  EXPECT_LT(model.qo(50.0, 50.0, util::Mbps(3.0)), model.qo(50.0, 20.0, util::Mbps(3.0)));
}

TEST(QoModelTest, BoundedInZeroHundred) {
  const QoModel model;
  EXPECT_GT(model.qo(10.0, 80.0, util::Mbps(0.0)), 0.0);
  EXPECT_LT(model.qo(90.0, 2.0, util::Mbps(10.0)), 100.0);
  // Saturation at absurd bitrates rounds to exactly 100 in double precision
  // but never exceeds it.
  EXPECT_LE(model.qo(90.0, 2.0, util::Mbps(1000.0)), 100.0);
}

TEST(QoModelTest, BitrateScaleApplied) {
  const QoModel unscaled(QoParams{}, 1.0);
  const QoModel scaled(QoParams{}, 2.0);
  EXPECT_NEAR(scaled.qo(50.0, 25.0, util::Mbps(2.0)), unscaled.qo(50.0, 25.0, util::Mbps(4.0)), 1e-12);
  EXPECT_THROW(QoModel(QoParams{}, 0.0), std::invalid_argument);
}

// ----------------------------------------------------- Frame-rate factor

TEST(FrameRateFactorTest, FullRateIsUnity) {
  for (double alpha : {0.01, 0.5, 2.0, 20.0}) {
    EXPECT_NEAR(QoModel::frame_rate_factor(alpha, 1.0), 1.0, 1e-12);
  }
}

TEST(FrameRateFactorTest, MonotoneInFrameRatio) {
  for (double alpha : {0.3, 2.0, 8.0}) {
    double prev = 0.0;
    for (double ratio : {0.4, 0.7, 0.9, 1.0}) {
      const double g = QoModel::frame_rate_factor(alpha, ratio);
      EXPECT_GT(g, prev);
      prev = g;
    }
  }
}

TEST(FrameRateFactorTest, LargeAlphaToleratesFrameDrop) {
  // Fast view switching (large alpha): dropping 30% of frames costs almost
  // nothing. Static gaze (small alpha): it costs nearly the full 30%.
  EXPECT_GT(QoModel::frame_rate_factor(15.0, 0.7), 0.97);
  EXPECT_LT(QoModel::frame_rate_factor(0.05, 0.7), 0.75);
}

TEST(FrameRateFactorTest, SmallAlphaLimitIsFrameRatio) {
  EXPECT_NEAR(QoModel::frame_rate_factor(1e-3, 0.7), 0.7, 1e-3);
}

TEST(FrameRateFactorTest, AlphaFromEq4) {
  // alpha = gain * S_fov / TI; with unit gain this is Eq. 4 verbatim.
  EXPECT_NEAR(QoModel::alpha(util::DegPerSec(30.0), 10.0, 1.0), 3.0, 1e-12);
  EXPECT_NEAR(QoModel::alpha(util::DegPerSec(5.0), 50.0, 1.0), 0.1, 1e-12);
  // The default gain rescales to our TI units.
  EXPECT_NEAR(QoModel::alpha(util::DegPerSec(30.0), 10.0), 3.0 * QoModel::kDefaultAlphaGain, 1e-9);
  // Clamped away from zero for a static gaze.
  EXPECT_GT(QoModel::alpha(util::DegPerSec(0.0), 10.0), 0.0);
  EXPECT_THROW(QoModel::alpha(util::DegPerSec(1.0), 0.0), std::invalid_argument);
}

// Property sweep: the frame-rate factor is monotone increasing in alpha at
// every reduced frame ratio (faster switching always tolerates frame drops
// at least as well), and bounded by (ratio, 1].
class FrameFactorProperty : public ::testing::TestWithParam<double> {};

TEST_P(FrameFactorProperty, MonotoneInAlphaAndBounded) {
  const double ratio = GetParam();
  double prev = 0.0;
  for (double alpha : {0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0}) {
    const double g = QoModel::frame_rate_factor(alpha, ratio);
    EXPECT_GE(g, prev - 1e-12);
    EXPECT_GE(g, ratio - 1e-9);  // never worse than proportional loss
    EXPECT_LE(g, 1.0);
    prev = g;
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, FrameFactorProperty,
                         ::testing::Values(0.5, 0.7, 0.8, 0.9, 0.99));

TEST(QoModelTest, PerceptualSensitivityRangeAndMonotonicity) {
  // In range for a broad sweep of inputs.
  for (const double s : {0.0, 30.0, 120.0, 720.0}) {
    for (const double si : {0.0, 20.0, 80.0}) {
      for (const double ti : {0.0, 50.0, 400.0}) {
        const double w = QoModel::perceptual_sensitivity(util::DegPerSec(s), si, ti);
        EXPECT_GE(w, 0.05);
        EXPECT_LE(w, 1.0);
      }
    }
  }
  // Faster head motion and higher temporal complexity both mask quality
  // differences (lower sensitivity); spatial detail raises sensitivity.
  const double base = QoModel::perceptual_sensitivity(util::DegPerSec(30.0), 40.0, 50.0);
  EXPECT_LT(QoModel::perceptual_sensitivity(util::DegPerSec(90.0), 40.0, 50.0), base);
  EXPECT_LT(QoModel::perceptual_sensitivity(util::DegPerSec(30.0), 40.0, 150.0), base);
  EXPECT_GT(QoModel::perceptual_sensitivity(util::DegPerSec(30.0), 80.0, 50.0), base);
}

TEST(QoModelTest, PerceptualSensitivityStaticDetailedSceneIsNearFull) {
  // A static gaze on a detailed, slow scene should lose little sensitivity.
  const double w = QoModel::perceptual_sensitivity(util::DegPerSec(0.0), 100.0, 0.0);
  EXPECT_GT(w, 0.9);
  EXPECT_THROW(QoModel::perceptual_sensitivity(util::DegPerSec(-1.0), 10.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW(QoModel::perceptual_sensitivity(util::DegPerSec(0.0), -1.0, 10.0),
               std::invalid_argument);
}

// --------------------------------------------------------------- QoEModel

TEST(QoEModelTest, Eq2Composition) {
  const QoEModel model(QoEWeights{1.0, 1.0});
  // No variation, no stall.
  const SegmentQoE calm = model.segment(80.0, 80.0, util::Seconds(0.5), util::Seconds(3.0));
  EXPECT_DOUBLE_EQ(calm.q, 80.0);
  // Variation penalty.
  const SegmentQoE vary = model.segment(80.0, 60.0, util::Seconds(0.5), util::Seconds(3.0));
  EXPECT_DOUBLE_EQ(vary.variation, 20.0);
  EXPECT_DOUBLE_EQ(vary.q, 60.0);
  // Rebuffer penalty: 1 s stall against a 2 s buffer.
  const SegmentQoE stall = model.segment(80.0, 80.0, util::Seconds(3.0), util::Seconds(2.0));
  EXPECT_NEAR(stall.rebuffer, (3.0 - 2.0) / 2.0 * 80.0, 1e-9);
  EXPECT_NEAR(stall.q, 80.0 - stall.rebuffer, 1e-9);
}

TEST(QoEModelTest, WeightsScalePenalties) {
  const QoEModel model(QoEWeights{0.5, 2.0});
  const SegmentQoE s = model.segment(80.0, 60.0, util::Seconds(3.0), util::Seconds(2.0));
  EXPECT_NEAR(s.q, 80.0 - 0.5 * 20.0 - 2.0 * s.rebuffer, 1e-9);
}

TEST(QoEModelTest, DrainedBufferRebufferIsFinite) {
  const QoEModel model;
  const SegmentQoE s = model.segment(50.0, 50.0, util::Seconds(2.0), util::Seconds(0.0));
  EXPECT_TRUE(std::isfinite(s.rebuffer));
  EXPECT_GT(s.rebuffer, 0.0);
}

TEST(QoEModelTest, AggregateAverages) {
  const QoEModel model;
  std::vector<SegmentQoE> segments = {model.segment(80.0, 80.0, util::Seconds(0.5), util::Seconds(3.0)),
                                      model.segment(60.0, 80.0, util::Seconds(0.5), util::Seconds(3.0))};
  const SessionQoE agg = SessionQoE::aggregate(segments);
  EXPECT_EQ(agg.segments, 2u);
  EXPECT_DOUBLE_EQ(agg.mean_qo, 70.0);
  EXPECT_DOUBLE_EQ(agg.mean_variation, 10.0);
  EXPECT_DOUBLE_EQ(agg.mean_q, (80.0 + 40.0) / 2.0);
  EXPECT_EQ(SessionQoE::aggregate({}).segments, 0u);
}

TEST(QoEModelTest, RejectsOutOfRangeInputs) {
  const QoEModel model;
  EXPECT_THROW(model.segment(101.0, 50.0, util::Seconds(0.5), util::Seconds(3.0)), std::invalid_argument);
  EXPECT_THROW(model.segment(50.0, 50.0, util::Seconds(-0.5), util::Seconds(3.0)), std::invalid_argument);
}

// -------------------------------------------------------------- VmafSynth

TEST(VmafSynthTest, DatasetShapeMatchesProtocol) {
  // 18 videos x 10 segments x bitrate sweep, scores in [0, 100].
  VmafSynthConfig config;
  const auto samples = synthesize_vmaf_dataset(config, trace::extended_videos());
  EXPECT_EQ(samples.size(),
            18u * config.segments_per_video * config.bitrates.size());
  for (const auto& s : samples) {
    EXPECT_GE(s.vmaf, 0.0);
    EXPECT_LE(s.vmaf, 100.0);
    EXPECT_GT(s.b, 0.0);
  }
}

TEST(VmafSynthTest, Deterministic) {
  VmafSynthConfig config;
  const auto a = synthesize_vmaf_dataset(config, trace::extended_videos());
  const auto b = synthesize_vmaf_dataset(config, trace::extended_videos());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a[100].vmaf, b[100].vmaf);
}

TEST(VmafSynthTest, HigherBitrateHigherScoreOnAverage) {
  VmafSynthConfig config;
  const auto samples = synthesize_vmaf_dataset(config, trace::extended_videos());
  double low_sum = 0.0, high_sum = 0.0;
  int low_n = 0, high_n = 0;
  for (const auto& s : samples) {
    if (s.b <= 0.5) {
      low_sum += s.vmaf;
      ++low_n;
    } else if (s.b >= 6.0) {
      high_sum += s.vmaf;
      ++high_n;
    }
  }
  ASSERT_GT(low_n, 0);
  ASSERT_GT(high_n, 0);
  EXPECT_GT(high_sum / high_n, low_sum / low_n + 20.0);
}

// ----------------------------------------------------------------- Fitter

TEST(QoFitterTest, RecoversTableTwoFromCleanData) {
  VmafSynthConfig config;
  config.score_noise_sigma = 0.0;
  const auto samples = synthesize_vmaf_dataset(config, trace::extended_videos());
  const QoFitResult fit = fit_qo_params(samples);
  EXPECT_NEAR(fit.params.c1, -0.2163, 0.02);
  EXPECT_NEAR(fit.params.c2, 0.0581, 0.002);
  EXPECT_NEAR(fit.params.c3, -0.1578, 0.002);
  EXPECT_NEAR(fit.params.c4, 0.7821, 0.01);
  EXPECT_GT(fit.pearson, 0.9999);
}

TEST(QoFitterTest, NoisyFitMatchesPaperQuality) {
  // The paper's fit reaches Pearson 0.9791; the noisy synthetic dataset is
  // tuned to land in the same regime, and the fitted signs must match
  // Table II.
  const VmafSynthConfig config;  // default noise
  const auto samples = synthesize_vmaf_dataset(config, trace::extended_videos());
  const QoFitResult fit = fit_qo_params(samples);
  EXPECT_GT(fit.pearson, 0.95);
  EXPECT_LT(fit.pearson, 0.999);
  EXPECT_GT(fit.params.c2, 0.0);
  EXPECT_LT(fit.params.c3, 0.0);
  EXPECT_GT(fit.params.c4, 0.0);
  EXPECT_NEAR(fit.params.c4, 0.7821, 0.15);
  EXPECT_LT(fit.rmse, 10.0);
}

TEST(QoFitterTest, RequiresEnoughSamples) {
  std::vector<VmafSample> tiny = {{50.0, 25.0, 1.0, 40.0}, {50.0, 25.0, 2.0, 50.0}};
  EXPECT_THROW(fit_qo_params(tiny), std::invalid_argument);
}

TEST(QoFitterTest, TightToleranceStillConverges) {
  VmafSynthConfig config;
  config.score_noise_sigma = 2.0;
  const auto samples = synthesize_vmaf_dataset(config, trace::extended_videos());
  QoFitOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 500;
  const QoFitResult fit = fit_qo_params(samples, options);
  EXPECT_TRUE(fit.converged);
  EXPECT_GT(fit.pearson, 0.99);
}

TEST(QoFitterTest, FitIsDeterministic) {
  const VmafSynthConfig config;
  const auto samples = synthesize_vmaf_dataset(config, trace::extended_videos());
  const QoFitResult a = fit_qo_params(samples);
  const QoFitResult b = fit_qo_params(samples);
  EXPECT_DOUBLE_EQ(a.params.c1, b.params.c1);
  EXPECT_DOUBLE_EQ(a.params.c4, b.params.c4);
  EXPECT_DOUBLE_EQ(a.pearson, b.pearson);
}

TEST(QoFitterTest, ConvergesQuickly) {
  VmafSynthConfig config;
  config.score_noise_sigma = 1.0;
  const auto samples = synthesize_vmaf_dataset(config, trace::extended_videos());
  QoFitOptions options;
  const QoFitResult fit = fit_qo_params(samples, options);
  EXPECT_LT(fit.iterations, options.max_iterations);
}

}  // namespace
}  // namespace ps360::qoe
