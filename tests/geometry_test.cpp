// Tests for the geometry module: angle wrapping, orientation vectors and
// Eq. 5, equirect points/rects with longitude wraparound, viewports, and the
// tile grid.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geometry/angles.h"
#include "geometry/tile_grid.h"
#include "geometry/viewport.h"
#include "util/rng.h"

namespace ps360::geometry {
namespace {

// ------------------------------------------------------------------ Angles

TEST(AnglesTest, Wrap360) {
  EXPECT_DOUBLE_EQ(wrap360(Degrees(0.0)).value(), 0.0);
  EXPECT_DOUBLE_EQ(wrap360(Degrees(360.0)).value(), 0.0);
  EXPECT_DOUBLE_EQ(wrap360(Degrees(-10.0)).value(), 350.0);
  EXPECT_DOUBLE_EQ(wrap360(Degrees(725.0)).value(), 5.0);
  EXPECT_GE(wrap360(Degrees(-1e-13)).value(), 0.0);
  EXPECT_LT(wrap360(Degrees(359.9999999)).value(), 360.0);
}

// wrap360 and wrap_delta as they were before the in-range fmod skip: fmod
// on every input.
double wrap360_plain_fmod(double deg) {
  double w = std::fmod(deg, kDegreesPerTurn);
  if (w < 0.0) w += kDegreesPerTurn;
  if (w >= kDegreesPerTurn) w = 0.0;
  return w;
}

double wrap_delta_plain_fmod(double a, double b) {
  double d = std::fmod(a - b, kDegreesPerTurn);
  if (d > 180.0) d -= kDegreesPerTurn;
  if (d <= -180.0) d += kDegreesPerTurn;
  return d;
}

TEST(AnglesTest, WrapMatchesPlainFmodBitForBit) {
  const double below_turn = std::nextafter(360.0, 0.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> inputs = {0.0,   -0.0,  below_turn, -below_turn, 360.0, -360.0,
                                725.0, -1e-13, 1e300,     -1e300,      inf,   -inf,
                                nan,   180.0, -180.0,     359.5,       -720.0};
  util::Rng rng(8);
  for (int i = 0; i < 2000; ++i) inputs.push_back(rng.uniform(-1100.0, 1100.0));
  const auto same = [](double got, double want) {
    if (std::isnan(want)) return std::isnan(got);
    return std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want);
  };
  for (const double a : inputs) {
    EXPECT_TRUE(same(wrap360(Degrees(a)).value(), wrap360_plain_fmod(a))) << a;
    for (const double b : {0.0, -0.0, 10.0, 350.0, -360.0, a}) {
      EXPECT_TRUE(same(wrap_delta(Degrees(a), Degrees(b)).value(),
                       wrap_delta_plain_fmod(a, b)))
          << a << " - " << b;
    }
  }
  // The sign of zero survives exactly as fmod leaves it.
  EXPECT_FALSE(std::signbit(wrap360(Degrees(0.0)).value()));
  EXPECT_TRUE(std::signbit(wrap360(Degrees(-0.0)).value()));
  EXPECT_TRUE(std::signbit(wrap_delta(Degrees(-0.0), Degrees(0.0)).value()));
  EXPECT_FALSE(std::signbit(wrap_delta(Degrees(0.0), Degrees(-0.0)).value()));
  EXPECT_TRUE(std::isnan(wrap360(Degrees(inf)).value()));
  EXPECT_TRUE(std::isnan(wrap360(Degrees(nan)).value()));
}

TEST(AnglesTest, WrapDeltaShortestPath) {
  EXPECT_DOUBLE_EQ(wrap_delta(Degrees(10.0), Degrees(350.0)).value(), 20.0);
  EXPECT_DOUBLE_EQ(wrap_delta(Degrees(350.0), Degrees(10.0)).value(), -20.0);
  EXPECT_DOUBLE_EQ(wrap_delta(Degrees(180.0), Degrees(0.0)).value(), 180.0);
  EXPECT_DOUBLE_EQ(wrap_delta(Degrees(0.0), Degrees(0.0)).value(), 0.0);
}

TEST(AnglesTest, CircularDistanceSymmetric) {
  EXPECT_DOUBLE_EQ(circular_distance(Degrees(10.0), Degrees(350.0)).value(), 20.0);
  EXPECT_DOUBLE_EQ(circular_distance(Degrees(350.0), Degrees(10.0)).value(), 20.0);
  EXPECT_DOUBLE_EQ(circular_distance(Degrees(90.0), Degrees(270.0)).value(), 180.0);
}

TEST(AnglesTest, OrientationVectorIsUnit) {
  for (double lon : {0.0, 45.0, 123.0, 359.0}) {
    for (double colat : {0.0, 30.0, 90.0, 180.0}) {
      EXPECT_NEAR(orientation_vector(Degrees(lon), Degrees(colat)).norm(), 1.0, 1e-12);
    }
  }
}

TEST(AnglesTest, OrientationVectorPoles) {
  const Vec3 north = orientation_vector(Degrees(123.0), Degrees(0.0));
  EXPECT_NEAR(north.z, 1.0, 1e-12);
  const Vec3 south = orientation_vector(Degrees(7.0), Degrees(180.0));
  EXPECT_NEAR(south.z, -1.0, 1e-12);
}

TEST(AnglesTest, AngularDistanceKnownValues) {
  const Vec3 a = orientation_vector(Degrees(0.0), Degrees(90.0));
  const Vec3 b = orientation_vector(Degrees(90.0), Degrees(90.0));
  EXPECT_NEAR(angular_distance(a, b).value(), 90.0, 1e-10);
  EXPECT_NEAR(angular_distance(a, a).value(), 0.0, 1e-6);
  const Vec3 c = orientation_vector(Degrees(180.0), Degrees(90.0));
  EXPECT_NEAR(angular_distance(a, c).value(), 180.0, 1e-10);
}

TEST(AnglesTest, SwitchingSpeedEq5) {
  // 30 degrees of arc in 0.5 s = 60 deg/s.
  const Vec3 a = orientation_vector(Degrees(0.0), Degrees(90.0));
  const Vec3 b = orientation_vector(Degrees(30.0), Degrees(90.0));
  EXPECT_NEAR(switching_speed_deg_per_s(a, b, Seconds(0.5)), 60.0, 1e-9);
  EXPECT_THROW(switching_speed_deg_per_s(a, b, Seconds(0.0)), std::invalid_argument);
}

TEST(AnglesTest, DegRadRoundTrip) {
  EXPECT_NEAR(to_degrees(Radians(to_radians(Degrees(123.4)).value())).value(), 123.4, 1e-12);
}

// ------------------------------------------------------------ EquirectPoint

TEST(EquirectPointTest, MakeWrapsAndValidates) {
  const auto p = EquirectPoint::make(Degrees(370.0), Degrees(45.0));
  EXPECT_DOUBLE_EQ(p.x, 10.0);
  EXPECT_THROW(EquirectPoint::make(Degrees(0.0), Degrees(181.0)), std::invalid_argument);
  EXPECT_THROW(EquirectPoint::make(Degrees(0.0), Degrees(-1.0)), std::invalid_argument);
  // wrap360(±inf) is NaN, which would slip through as a longitude.
  for (const double lon : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(EquirectPoint::make(Degrees(lon), Degrees(90.0)), std::invalid_argument);
  }
}

TEST(EquirectPointTest, WrappedDistanceHonoursSeam) {
  const auto a = EquirectPoint::make(Degrees(359.0), Degrees(90.0));
  const auto b = EquirectPoint::make(Degrees(1.0), Degrees(90.0));
  EXPECT_NEAR(wrapped_distance(a, b), 2.0, 1e-12);
  const auto c = EquirectPoint::make(Degrees(10.0), Degrees(80.0));
  const auto d = EquirectPoint::make(Degrees(10.0), Degrees(100.0));
  EXPECT_NEAR(wrapped_distance(c, d), 20.0, 1e-12);
}

TEST(EquirectPointTest, AngularVsWrappedAtEquator) {
  // At the equator (colat 90) the equirect metric matches the sphere.
  const auto a = EquirectPoint::make(Degrees(0.0), Degrees(90.0));
  const auto b = EquirectPoint::make(Degrees(40.0), Degrees(90.0));
  EXPECT_NEAR(angular_distance(a, b).value(), 40.0, 1e-9);
}

// -------------------------------------------------------------- LonInterval

TEST(LonIntervalTest, ContainsWithWrap) {
  const auto arc = LonInterval::make(Degrees(350.0), Degrees(30.0));  // [350, 20]
  EXPECT_TRUE(arc.contains(Degrees(355.0)));
  EXPECT_TRUE(arc.contains(Degrees(10.0)));
  EXPECT_FALSE(arc.contains(Degrees(30.0)));
  EXPECT_FALSE(arc.contains(Degrees(180.0)));
}

TEST(LonIntervalTest, FullCircleContainsEverything) {
  const auto arc = LonInterval::make(Degrees(10.0), Degrees(360.0));
  EXPECT_TRUE(arc.contains(Degrees(0.0)));
  EXPECT_TRUE(arc.contains(Degrees(200.0)));
}

TEST(LonIntervalTest, UnitedPicksSmallestCover) {
  const auto a = LonInterval::make(Degrees(350.0), Degrees(20.0));  // [350, 10]
  const auto b = LonInterval::make(Degrees(20.0), Degrees(10.0));   // [20, 30]
  const auto u = a.united(b);
  EXPECT_TRUE(u.contains(Degrees(355.0)));
  EXPECT_TRUE(u.contains(Degrees(25.0)));
  EXPECT_LE(u.width, 40.0 + 1e-9);
}

// ------------------------------------------------------------- EquirectRect

TEST(EquirectRectTest, ContainsAcrossSeam) {
  const auto rect =
      EquirectRect::make(LonInterval::make(Degrees(330.0), Degrees(60.0)), Degrees(40.0), Degrees(140.0));
  EXPECT_TRUE(rect.contains(EquirectPoint::make(Degrees(350.0), Degrees(90.0))));
  EXPECT_TRUE(rect.contains(EquirectPoint::make(Degrees(20.0), Degrees(90.0))));
  EXPECT_FALSE(rect.contains(EquirectPoint::make(Degrees(60.0), Degrees(90.0))));
  EXPECT_FALSE(rect.contains(EquirectPoint::make(Degrees(350.0), Degrees(20.0))));
}

TEST(EquirectRectTest, AreaFraction) {
  const auto full = EquirectRect::make(LonInterval::make(Degrees(0.0), Degrees(360.0)), Degrees(0.0), Degrees(180.0));
  EXPECT_NEAR(full.area_fraction(), 1.0, 1e-12);
  const auto fov = EquirectRect::make(LonInterval::make(Degrees(0.0), Degrees(100.0)), Degrees(40.0), Degrees(140.0));
  EXPECT_NEAR(fov.area_fraction(), 100.0 * 100.0 / (360.0 * 180.0), 1e-12);
}

TEST(EquirectRectTest, CoverageOfSelfIsOne) {
  const auto rect = EquirectRect::make(LonInterval::make(Degrees(300.0), Degrees(90.0)), Degrees(30.0), Degrees(120.0));
  EXPECT_NEAR(rect.coverage_of(rect), 1.0, 1e-9);
}

TEST(EquirectRectTest, CoverageOfDisjointIsZero) {
  const auto a = EquirectRect::make(LonInterval::make(Degrees(0.0), Degrees(50.0)), Degrees(30.0), Degrees(120.0));
  const auto b = EquirectRect::make(LonInterval::make(Degrees(120.0), Degrees(50.0)), Degrees(30.0), Degrees(120.0));
  EXPECT_DOUBLE_EQ(a.coverage_of(b), 0.0);
}

TEST(EquirectRectTest, PartialCoverageAcrossSeam) {
  const auto big = EquirectRect::make(LonInterval::make(Degrees(330.0), Degrees(60.0)), Degrees(0.0), Degrees(180.0));
  const auto small = EquirectRect::make(LonInterval::make(Degrees(350.0), Degrees(80.0)), Degrees(0.0), Degrees(180.0));
  // small = [350, 70]; big = [330, 30]; overlap = [350, 30] = 40 of 80.
  EXPECT_NEAR(big.coverage_of(small), 0.5, 1e-9);
}

TEST(EquirectRectTest, VerticalPartialCoverage) {
  const auto a = EquirectRect::make(LonInterval::make(Degrees(0.0), Degrees(100.0)), Degrees(0.0), Degrees(90.0));
  const auto b = EquirectRect::make(LonInterval::make(Degrees(0.0), Degrees(100.0)), Degrees(45.0), Degrees(135.0));
  EXPECT_NEAR(a.coverage_of(b), 0.5, 1e-9);
}

TEST(EquirectRectTest, UnitedCoversBoth) {
  const auto a = EquirectRect::make(LonInterval::make(Degrees(350.0), Degrees(20.0)), Degrees(40.0), Degrees(80.0));
  const auto b = EquirectRect::make(LonInterval::make(Degrees(30.0), Degrees(20.0)), Degrees(60.0), Degrees(120.0));
  const auto u = a.united(b);
  EXPECT_GE(u.coverage_of(a), 1.0 - 1e-9);
  EXPECT_GE(u.coverage_of(b), 1.0 - 1e-9);
}

// ---------------------------------------------------------------- Viewport

TEST(ViewportTest, AreaCenteredOnViewingCenter) {
  const Viewport vp(EquirectPoint::make(Degrees(180.0), Degrees(90.0)));
  const auto area = vp.area();
  EXPECT_NEAR(area.lon.width, 100.0, 1e-12);
  EXPECT_NEAR(area.y_lo, 40.0, 1e-12);
  EXPECT_NEAR(area.y_hi, 140.0, 1e-12);
  EXPECT_TRUE(vp.contains(EquirectPoint::make(Degrees(180.0), Degrees(90.0))));
  EXPECT_FALSE(vp.contains(EquirectPoint::make(Degrees(0.0), Degrees(90.0))));
}

TEST(ViewportTest, ClampsAtPoles) {
  const Viewport vp(EquirectPoint::make(Degrees(0.0), Degrees(10.0)));
  const auto area = vp.area();
  EXPECT_DOUBLE_EQ(area.y_lo, 0.0);
  EXPECT_NEAR(area.y_hi, 60.0, 1e-12);
}

TEST(ViewportTest, WrapsAcrossSeam) {
  const Viewport vp(EquirectPoint::make(Degrees(10.0), Degrees(90.0)));
  EXPECT_TRUE(vp.contains(EquirectPoint::make(Degrees(330.0), Degrees(90.0))));
  EXPECT_FALSE(vp.contains(EquirectPoint::make(Degrees(300.0), Degrees(90.0))));
}

TEST(ViewportTest, InvalidFovThrows) {
  EXPECT_THROW(Viewport(EquirectPoint::make(Degrees(0.0), Degrees(90.0)), Degrees(0.0), Degrees(100.0)),
               std::invalid_argument);
  EXPECT_THROW(Viewport(EquirectPoint::make(Degrees(0.0), Degrees(90.0)), Degrees(100.0), Degrees(200.0)),
               std::invalid_argument);
}

// ---------------------------------------------------------------- TileGrid

TEST(TileGridTest, PaperGridDimensions) {
  const TileGrid grid(4, 8);
  EXPECT_EQ(grid.tile_count(), 32u);
  EXPECT_DOUBLE_EQ(grid.tile_width_deg(), 45.0);
  EXPECT_DOUBLE_EQ(grid.tile_height_deg(), 45.0);
}

TEST(TileGridTest, TileAtAndAreaConsistent) {
  const TileGrid grid(4, 8);
  const auto p = EquirectPoint::make(Degrees(100.0), Degrees(70.0));
  const TileIndex t = grid.tile_at(p);
  EXPECT_EQ(t.row, 1u);
  EXPECT_EQ(t.col, 2u);
  EXPECT_TRUE(grid.tile_area(t).contains(p));
}

TEST(TileGridTest, TileAtBoundaries) {
  const TileGrid grid(4, 8);
  const auto corner = grid.tile_at(EquirectPoint::make(Degrees(0.0), Degrees(0.0)));
  EXPECT_EQ(corner.row, 0u);
  EXPECT_EQ(corner.col, 0u);
  const auto bottom = grid.tile_at(EquirectPoint::make(Degrees(359.9), Degrees(180.0)));
  EXPECT_EQ(bottom.row, 3u);
  EXPECT_EQ(bottom.col, 7u);
}

TEST(TileGridTest, FovCoversNineTilesWhenRowAligned) {
  // A 100x100 FoV whose vertical extent stays within three tile rows covers
  // 3x3 = 9 tiles — the paper's "nine FoV tiles". (Centered exactly on the
  // equator it grazes a fourth row: 40..140 touches rows 0..3.)
  const TileGrid grid(4, 8);
  const Viewport aligned(EquirectPoint::make(Degrees(112.5), Degrees(95.0)));  // y in [45, 145]
  EXPECT_EQ(grid.tiles_in(grid.covering_rect(aligned.area())).size(), 9u);
  const Viewport centered(EquirectPoint::make(Degrees(112.5), Degrees(90.0)));  // y in [40, 140]
  EXPECT_EQ(grid.tiles_in(grid.covering_rect(centered.area())).size(), 12u);
}

TEST(TileGridTest, CoveringRectWrapsColumns) {
  const TileGrid grid(4, 8);
  const Viewport vp(EquirectPoint::make(Degrees(5.0), Degrees(95.0)));  // [315, 55] in lon
  const auto rect = grid.covering_rect(vp.area());
  EXPECT_EQ(rect.col_count, 3u);
  EXPECT_EQ(rect.col_lo, 7u);
  const auto tiles = grid.tiles_in(rect);
  EXPECT_EQ(tiles.size(), 9u);
  // Columns must be 7, 0, 1.
  bool has7 = false, has0 = false, has1 = false;
  for (const auto& t : tiles) {
    has7 |= t.col == 7;
    has0 |= t.col == 0;
    has1 |= t.col == 1;
  }
  EXPECT_TRUE(has7 && has0 && has1);
}

TEST(TileGridTest, CoveringRectExactTileBoundaries) {
  const TileGrid grid(4, 8);
  // Exactly one tile: [45, 90] x [45, 90].
  const auto rect = grid.covering_rect(
      EquirectRect::make(LonInterval::make(Degrees(45.0), Degrees(45.0)), Degrees(45.0), Degrees(90.0)));
  EXPECT_EQ(rect.tile_count(), 1u);
  EXPECT_EQ(rect.col_lo, 1u);
  EXPECT_EQ(rect.row_lo, 1u);
}

TEST(TileGridTest, SnappedAreaContainsOriginal) {
  const TileGrid grid(4, 8);
  const auto area = EquirectRect::make(LonInterval::make(Degrees(100.0), Degrees(80.0)), Degrees(50.0), Degrees(130.0));
  const auto snapped = grid.rect_area(grid.covering_rect(area));
  EXPECT_GE(snapped.coverage_of(area), 1.0 - 1e-9);
  EXPECT_GE(snapped.area_deg2(), area.area_deg2());
}

TEST(TileGridTest, FullFrameRect) {
  const TileGrid grid(4, 8);
  const auto rect = grid.covering_rect(
      EquirectRect::make(LonInterval::make(Degrees(0.0), Degrees(360.0)), Degrees(0.0), Degrees(180.0)));
  EXPECT_EQ(rect.tile_count(), 32u);
  EXPECT_NEAR(grid.rect_area(rect).area_fraction(), 1.0, 1e-12);
}

// Property sweep: for random (possibly wrapping) rect pairs, coverage must
// satisfy the intersection-area identity
//   coverage_of(b) * area(b) == b.coverage_of(a) * area(a)
// (both equal the intersection area), stay within [0, 1], and be exactly 1
// for the united rect over each operand.
class RectCoverageProperty : public ::testing::TestWithParam<int> {};

TEST_P(RectCoverageProperty, IntersectionIdentityAndBounds) {
  ps360::util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  for (int iter = 0; iter < 200; ++iter) {
    const auto random_rect = [&rng] {
      const double lo = rng.uniform(0.0, 360.0);
      const double width = rng.uniform(5.0, 355.0);
      const double y0 = rng.uniform(0.0, 170.0);
      const double y1 = rng.uniform(y0 + 1.0, 180.0);
      return EquirectRect::make(LonInterval::make(Degrees(lo), Degrees(width)), Degrees(y0), Degrees(y1));
    };
    const EquirectRect a = random_rect();
    const EquirectRect b = random_rect();

    const double cab = a.coverage_of(b);
    const double cba = b.coverage_of(a);
    ASSERT_GE(cab, 0.0);
    ASSERT_LE(cab, 1.0 + 1e-9);
    ASSERT_NEAR(cab * b.area_deg2(), cba * a.area_deg2(), 1e-6);

    const EquirectRect u = a.united(b);
    ASSERT_GE(u.coverage_of(a), 1.0 - 1e-9);
    ASSERT_GE(u.coverage_of(b), 1.0 - 1e-9);
    ASSERT_NEAR(a.coverage_of(a), 1.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectCoverageProperty, ::testing::Range(0, 6));

// Property sweep: any covering_rect (with or without overlap trimming) stays
// inside the grid, and the untrimmed one fully covers the input area.
class CoveringRectProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoveringRectProperty, CoversAndStaysInGrid) {
  ps360::util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 1);
  const TileGrid grid(4, 8);
  for (int iter = 0; iter < 200; ++iter) {
    const double lo = rng.uniform(0.0, 360.0);
    const double width = rng.uniform(1.0, 359.0);
    const double y0 = rng.uniform(0.0, 178.0);
    const double y1 = rng.uniform(y0 + 1.0, 180.0);
    const auto area = EquirectRect::make(LonInterval::make(Degrees(lo), Degrees(width)), Degrees(y0), Degrees(y1));

    const TileRect full = grid.covering_rect(area);
    ASSERT_LE(full.row_lo + full.row_count, grid.rows());
    ASSERT_LE(full.col_count, grid.cols());
    ASSERT_GE(grid.rect_area(full).coverage_of(area), 1.0 - 1e-9);

    const TileRect trimmed = grid.covering_rect(area, 0.25);
    ASSERT_LE(trimmed.tile_count(), full.tile_count());
    ASSERT_GE(trimmed.row_count, 1u);
    ASSERT_GE(trimmed.col_count, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoveringRectProperty, ::testing::Range(0, 6));

TEST(TileGridTest, FtileBlockGridGeometry) {
  // The 15x30 block grid the Ftile baseline starts from.
  const TileGrid blocks(15, 30);
  EXPECT_EQ(blocks.tile_count(), 450u);
  EXPECT_DOUBLE_EQ(blocks.tile_width_deg(), 12.0);
  EXPECT_DOUBLE_EQ(blocks.tile_height_deg(), 12.0);
  const Viewport vp(EquirectPoint::make(Degrees(180.0), Degrees(90.0)));
  const auto rect = blocks.covering_rect(vp.area());
  // A 100-degree FoV spans ceil-ish 100/12 = 9..10 blocks per axis.
  EXPECT_GE(rect.col_count, 9u);
  EXPECT_LE(rect.col_count, 10u);
  EXPECT_GE(rect.row_count, 9u);
  EXPECT_LE(rect.row_count, 10u);
}

TEST(TileGridTest, SingleTileGridDegenerate) {
  const TileGrid grid(1, 1);
  EXPECT_EQ(grid.tile_count(), 1u);
  const auto rect = grid.covering_rect(
      EquirectRect::make(LonInterval::make(Degrees(10.0), Degrees(50.0)), Degrees(20.0), Degrees(80.0)));
  EXPECT_EQ(rect.tile_count(), 1u);
  EXPECT_NEAR(grid.rect_area(rect).area_fraction(), 1.0, 1e-12);
}

TEST(TileGridTest, OverlapThresholdValidation) {
  const TileGrid grid(4, 8);
  const auto area = EquirectRect::make(LonInterval::make(Degrees(0.0), Degrees(100.0)), Degrees(40.0), Degrees(140.0));
  EXPECT_THROW(grid.covering_rect(area, -0.1), std::invalid_argument);
  EXPECT_THROW(grid.covering_rect(area, 1.0), std::invalid_argument);
  // Threshold 0 reduces to the exact covering rect.
  const auto full = grid.covering_rect(area);
  const auto zero = grid.covering_rect(area, 0.0);
  EXPECT_EQ(full.tile_count(), zero.tile_count());
}

TEST(TileGridTest, RectAreaRoundTrip) {
  const TileGrid grid(4, 8);
  const TileRect rect{1, 2, 6, 4};  // wraps columns 6,7,0,1
  const auto area = grid.rect_area(rect);
  EXPECT_NEAR(area.area_fraction(), (4.0 * 45.0) * (2.0 * 45.0) / (360.0 * 180.0),
              1e-12);
  const auto back = grid.covering_rect(area);
  EXPECT_EQ(back.col_lo, rect.col_lo);
  EXPECT_EQ(back.col_count, rect.col_count);
  EXPECT_EQ(back.row_lo, rect.row_lo);
  EXPECT_EQ(back.row_count, rect.row_count);
}

}  // namespace
}  // namespace ps360::geometry
