// Tests for the video module: the quality/frame-rate ladders, per-segment
// content features, and the encoding-size model including the exact Fig. 8
// calibration (Ptile/Ctile size ratios per quality level).
#include <gtest/gtest.h>

#include "trace/video_catalog.h"
#include "video/content.h"
#include "video/encoding.h"
#include "video/quality.h"

namespace ps360::video {
namespace {

const ContentFeatures kReferenceContent{50.0, 25.0};

// ----------------------------------------------------------- QualityLadder

TEST(QualityLadderTest, CrfLadderMatchesPaper) {
  // CRF 38..18 in steps of 5, level 1 = worst.
  EXPECT_EQ(QualityLadder::crf(1), 38);
  EXPECT_EQ(QualityLadder::crf(2), 33);
  EXPECT_EQ(QualityLadder::crf(3), 28);
  EXPECT_EQ(QualityLadder::crf(4), 23);
  EXPECT_EQ(QualityLadder::crf(5), 18);
  EXPECT_THROW(QualityLadder::crf(0), std::invalid_argument);
  EXPECT_THROW(QualityLadder::crf(6), std::invalid_argument);
}

TEST(QualityLadderTest, RateFactorsIncreaseWithLevel) {
  double prev = 0.0;
  for (int v = 1; v <= 5; ++v) {
    const double f = QualityLadder::rate_factor(v);
    EXPECT_GT(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(QualityLadder::rate_factor(5), 1.0);
  // The bottom of the ladder is a small fraction of the top.
  EXPECT_LT(QualityLadder::rate_factor(1), 0.05);
}

TEST(FrameRateLadderTest, ReductionStepsMatchPaper) {
  // {original, -10%, -20%, -30%}: indexes 4..1.
  const FrameRateLadder ladder(30.0);
  EXPECT_DOUBLE_EQ(ladder.fps(4), 30.0);
  EXPECT_DOUBLE_EQ(ladder.fps(3), 27.0);
  EXPECT_DOUBLE_EQ(ladder.fps(2), 24.0);
  EXPECT_DOUBLE_EQ(ladder.fps(1), 21.0);
  EXPECT_DOUBLE_EQ(ladder.ratio(1), 0.7);
  EXPECT_THROW(ladder.fps(0), std::invalid_argument);
  EXPECT_THROW(ladder.fps(5), std::invalid_argument);
}

// ---------------------------------------------------------------- Content

TEST(ContentTest, SegmentCountCeils) {
  trace::VideoInfo video = trace::test_videos()[0];
  video.duration_s = 10.5;
  EXPECT_EQ(segment_count(video, 1.0), 11u);
  video.duration_s = 10.0;
  EXPECT_EQ(segment_count(video, 1.0), 10u);
}

TEST(ContentTest, FeaturesAreDeterministic) {
  const auto& video = trace::test_videos()[3];
  const auto a = segment_features(video, 17);
  const auto b = segment_features(video, 17);
  EXPECT_DOUBLE_EQ(a.si, b.si);
  EXPECT_DOUBLE_EQ(a.ti, b.ti);
}

TEST(ContentTest, FeaturesVaryAcrossSegmentsAroundBase) {
  const auto& video = trace::test_videos()[0];
  double si_sum = 0.0;
  bool varies = false;
  double prev = -1.0;
  const std::size_t n = 100;
  for (std::size_t k = 0; k < n; ++k) {
    const auto f = segment_features(video, k);
    EXPECT_GE(f.si, 10.0);
    EXPECT_LE(f.si, 90.0);
    EXPECT_GE(f.ti, 2.0);
    EXPECT_LE(f.ti, 80.0);
    si_sum += f.si;
    if (prev >= 0.0 && f.si != prev) varies = true;
    prev = f.si;
  }
  EXPECT_TRUE(varies);
  EXPECT_NEAR(si_sum / n, video.si_base, 6.0);
}

TEST(ContentTest, VideoFeaturesAverageSegments) {
  const auto& video = trace::test_videos()[2];
  const auto f = video_features(video, 1.0);
  EXPECT_NEAR(f.si, video.si_base, 5.0);
  EXPECT_NEAR(f.ti, video.ti_base, 5.0);
}

// ------------------------------------------------------------ encoding model

TEST(EncodingModelTest, Fig8RatiosReproducedExactly) {
  // The calibration anchor: a 9-reference-tile region encoded as one Ptile
  // versus as 9 conventional tiles must have exactly the Fig. 8 median
  // ratios (62/57/47/35/27% for quality 5..1), with noise disabled.
  const double anchor_area = static_cast<double>(kAnchorTileCount) * kRefTileAreaFraction;
  for (int v = 1; v <= 5; ++v) {
    const double one = region_bytes(anchor_area, 1, v, kReferenceContent, 1.0);
    const double nine =
        region_bytes(anchor_area, kAnchorTileCount, v, kReferenceContent, 1.0);
    EXPECT_NEAR(one / nine, kFovSizeRatio[v - 1], 1e-9) << "quality " << v;
  }
}

TEST(EncodingModelTest, SavingsGrowAsQualityDrops) {
  // Fig. 8's headline: tiling overhead hurts relatively more at low rates.
  double prev_ratio = 0.0;
  for (int v = 1; v <= 5; ++v) {
    const double ratio = kFovSizeRatio[v - 1];
    EXPECT_GT(ratio, prev_ratio);
    prev_ratio = ratio;
  }
}

TEST(EncodingModelTest, MoreTilesMoreBytes) {
  for (int v : {1, 3, 5}) {
    double prev = 0.0;
    for (std::size_t n : {1u, 4u, 9u, 16u}) {
      const double bytes = region_bytes(0.3, n, v, kReferenceContent, 1.0);
      EXPECT_GT(bytes, prev);
      prev = bytes;
    }
  }
}

TEST(EncodingModelTest, BytesScaleWithAreaQualityAndDuration) {
  const double base = region_bytes(0.2, 1, 3, kReferenceContent, 1.0);
  EXPECT_GT(region_bytes(0.4, 1, 3, kReferenceContent, 1.0), base);
  EXPECT_GT(region_bytes(0.2, 1, 4, kReferenceContent, 1.0), base);
  EXPECT_NEAR(region_bytes(0.2, 1, 3, kReferenceContent, 2.0), 2.0 * base, 1e-6);
}

TEST(EncodingModelTest, ContentComplexityRaisesRate) {
  const ContentFeatures simple{20.0, 5.0};
  const ContentFeatures complex{80.0, 60.0};
  EXPECT_GT(area_rate_mbps(3, complex), area_rate_mbps(3, simple));
}

TEST(EncodingModelTest, FrameRateReductionSavesSublinearly) {
  const double full = region_bytes(0.2, 1, 4, kReferenceContent, 1.0, 1.0);
  const double reduced = region_bytes(0.2, 1, 4, kReferenceContent, 1.0, 0.7);
  // Dropping 30% of frames saves bytes, but less than 30%.
  EXPECT_LT(reduced, full);
  EXPECT_GT(reduced, 0.7 * full);
}

TEST(EncodingModelTest, NoiseIsDeterministicAndMedianCentred) {
  const double clean =
      region_bytes(0.2, 1, 3, kReferenceContent, 1.0, 1.0, size_noise(42, 0));
  EXPECT_EQ(clean, region_bytes(0.2, 1, 3, kReferenceContent, 1.0));
  std::vector<double> ratios;
  for (std::uint64_t key = 1; key <= 501; ++key) {
    const double noisy =
        region_bytes(0.2, 1, 3, kReferenceContent, 1.0, 1.0, size_noise(42, key));
    EXPECT_DOUBLE_EQ(noisy, region_bytes(0.2, 1, 3, kReferenceContent, 1.0, 1.0,
                                         size_noise(42, key)));
    ratios.push_back(noisy / clean);
  }
  std::sort(ratios.begin(), ratios.end());
  EXPECT_NEAR(ratios[ratios.size() / 2], 1.0, 0.05);  // median ~ 1
  EXPECT_GT(ratios.back(), 1.1);                      // genuine spread
  EXPECT_LT(ratios.front(), 0.9);
}

TEST(EncodingModelTest, TiledBytesMatchesEqualSplit) {
  const std::vector<double> equal_tiles(4, 0.05);
  const double a = tiled_bytes(equal_tiles, 3, kReferenceContent, 1.0);
  const double b = region_bytes(0.2, 4, 3, kReferenceContent, 1.0);
  EXPECT_NEAR(a, b, 1e-6);
}

TEST(EncodingModelTest, FovBitrateTracksQuality) {
  double prev = 0.0;
  for (int v = 1; v <= 5; ++v) {
    const double b = fov_bitrate_mbps(v, kReferenceContent);
    EXPECT_GT(b, prev);
    prev = b;
  }
  // At quality 5 a FoV patch is a Mbps-scale stream (an order below the
  // full-frame rate).
  EXPECT_GT(fov_bitrate_mbps(5, kReferenceContent), 0.5);
  EXPECT_LT(fov_bitrate_mbps(5, kReferenceContent), 5.0);
}

TEST(EncodingModelTest, WholeFrameSingleTileIsEfficient) {
  // Nontile pays only one per-tile overhead: its per-area cost must be well
  // below the same frame cut into the 4x8 grid.
  const double nontile = region_bytes(1.0, 1, 3, kReferenceContent, 1.0);
  const double grid = region_bytes(1.0, 32, 3, kReferenceContent, 1.0);
  EXPECT_LT(nontile, 0.6 * grid);
}

TEST(EncodingModelTest, RejectsInvalidArguments) {
  EXPECT_THROW(region_bytes(0.0, 1, 3, kReferenceContent, 1.0),
               std::invalid_argument);
  EXPECT_THROW(region_bytes(0.2, 0, 3, kReferenceContent, 1.0),
               std::invalid_argument);
  EXPECT_THROW(region_bytes(0.2, 1, 3, kReferenceContent, 0.0),
               std::invalid_argument);
  EXPECT_THROW(region_bytes(0.2, 1, 3, kReferenceContent, 1.0, 1.5),
               std::invalid_argument);
  EXPECT_THROW(region_bytes(0.2, 1, 0, kReferenceContent, 1.0),
               std::invalid_argument);
}

// Parameterized sweep: the Fig. 8 ratio property holds for every quality
// and for varied content.
class EncodingRatioSweep
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(EncodingRatioSweep, RatioIndependentOfContent) {
  const auto [quality, si, ti] = GetParam();
  const ContentFeatures feat{si, ti};
  const double anchor_area = static_cast<double>(kAnchorTileCount) * kRefTileAreaFraction;
  const double one = region_bytes(anchor_area, 1, quality, feat, 1.0);
  const double nine = region_bytes(anchor_area, kAnchorTileCount, quality, feat, 1.0);
  EXPECT_NEAR(one / nine, kFovSizeRatio[quality - 1], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllQualitiesAndContents, EncodingRatioSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(20.0, 50.0, 80.0),
                       ::testing::Values(5.0, 25.0, 60.0)));

}  // namespace
}  // namespace ps360::video
