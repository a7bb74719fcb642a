// Tests for the ptile module: k-means on the wrapped plane, Algorithm 1
// clustering (linkage, diameter cap, seeding), Ptile construction with
// background blocks, and the Ftile baseline layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>

#include "ptile/clusterer.h"
#include "ptile/ftile.h"
#include "ptile/heatmap.h"
#include "ptile/kmeans.h"
#include "ptile/ptile.h"
#include "trace/head_synth.h"
#include "util/rng.h"

namespace ps360::ptile {
namespace {

using geometry::EquirectPoint;
using geometry::Viewport;

// The paper's FoV and the default seed, which a workload would pass.
constexpr geometry::Degrees kFov{100.0};
constexpr std::uint64_t kSeed = 42;

std::vector<EquirectPoint> blob(double cx, double cy, double radius, std::size_t n,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<EquirectPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(EquirectPoint::make(geometry::Degrees(cx + rng.uniform(-radius, radius)), geometry::Degrees(std::clamp(cy + rng.uniform(-radius, radius),
                                                    0.0, 180.0))));
  }
  return points;
}

// ------------------------------------------------------------------ kmeans

TEST(KMeansTest, CentroidCircularMeanAcrossSeam) {
  const std::vector<EquirectPoint> points = {EquirectPoint::make(geometry::Degrees(355.0), geometry::Degrees(90.0)),
                                             EquirectPoint::make(geometry::Degrees(5.0), geometry::Degrees(90.0))};
  const auto c = centroid(points, {0, 1}, {});
  EXPECT_LT(geometry::circular_distance(geometry::Degrees(c.x), geometry::Degrees(0.0)).value(), 1e-9);
  EXPECT_DOUBLE_EQ(c.y, 90.0);
}

TEST(KMeansTest, WeightedCentroidLeansTowardWeight) {
  const std::vector<EquirectPoint> points = {EquirectPoint::make(geometry::Degrees(10.0), geometry::Degrees(90.0)),
                                             EquirectPoint::make(geometry::Degrees(30.0), geometry::Degrees(90.0))};
  const auto c = centroid(points, {0, 1}, {3.0, 1.0});
  EXPECT_LT(c.x, 20.0);
}

TEST(KMeansTest, SeparatesTwoBlobs) {
  auto points = blob(60.0, 80.0, 5.0, 20, 1);
  const auto other = blob(200.0, 100.0, 5.0, 20, 2);
  points.insert(points.end(), other.begin(), other.end());
  util::Rng rng(3);
  const auto result = kmeans(points, {}, 2, rng);
  // All of the first 20 share a cluster; all of the last 20 the other.
  const std::size_t c0 = result.assignment[0];
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(result.assignment[i], c0);
  const std::size_t c1 = result.assignment[20];
  EXPECT_NE(c0, c1);
  for (std::size_t i = 20; i < 40; ++i) EXPECT_EQ(result.assignment[i], c1);
}

TEST(KMeansTest, Split2DeterministicAndBalancedOnTwoBlobs) {
  auto points = blob(100.0, 90.0, 4.0, 15, 4);
  const auto other = blob(160.0, 90.0, 4.0, 15, 5);
  points.insert(points.end(), other.begin(), other.end());
  const auto a = kmeans_split2(points);
  const auto b = kmeans_split2(points);
  EXPECT_EQ(a.assignment, b.assignment);  // fully deterministic
  const auto groups = a.groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].size(), 15u);
  EXPECT_EQ(groups[1].size(), 15u);
}

TEST(KMeansTest, SplitAcrossSeam) {
  // Two blobs straddling the wrap: 350 and 10 degrees are close; 180 is far.
  auto points = blob(355.0, 90.0, 3.0, 10, 6);
  const auto other = blob(180.0, 90.0, 3.0, 10, 7);
  points.insert(points.end(), other.begin(), other.end());
  const auto result = kmeans_split2(points);
  const auto groups = result.groups();
  EXPECT_EQ(groups[0].size(), 10u);
  EXPECT_EQ(groups[1].size(), 10u);
}

TEST(KMeansTest, InertiaNonNegativeAndZeroForIdenticalPoints) {
  const std::vector<EquirectPoint> same(5, EquirectPoint::make(geometry::Degrees(42.0), geometry::Degrees(90.0)));
  util::Rng rng(8);
  const auto result = kmeans(same, {}, 1, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, ValidatesArguments) {
  util::Rng rng(9);
  const auto points = blob(10.0, 90.0, 2.0, 3, 10);
  EXPECT_THROW(kmeans(points, {}, 0, rng), std::invalid_argument);
  EXPECT_THROW(kmeans(points, {}, 4, rng), std::invalid_argument);
  EXPECT_THROW(kmeans(points, {1.0, 1.0}, 2, rng), std::invalid_argument);
  EXPECT_THROW(kmeans_split2({EquirectPoint::make(geometry::Degrees(0.0), geometry::Degrees(90.0))}), std::invalid_argument);
}

void expect_throw_naming(const std::function<void()>& run, const std::string& expected) {
  try {
    run();
    ADD_FAILURE() << "accepted invalid input; expected: " << expected;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
  }
}

// Unchecked, a negative weight ran to a negative inertia, an infinite one
// to NaN centroids, and a NaN point or a colatitude of 500 was clustered;
// each is now rejected at entry, naming its index.
TEST(KMeansTest, RejectsBadWeightsNamingTheIndex) {
  const auto points = blob(10.0, 90.0, 20.0, 4, 21);
  util::Rng rng(22);
  const double inf = std::numeric_limits<double>::infinity();
  expect_throw_naming([&] { kmeans(points, {1.0, -5.0, 1.0, 1.0}, 2, rng); }, "weights[1]");
  expect_throw_naming([&] { kmeans(points, {1.0, 1.0, inf, 1.0}, 2, rng); }, "weights[2]");
  expect_throw_naming([&] { kmeans(points, {1.0, 1.0, 1.0, std::nan("")}, 2, rng); },
                      "weights[3]");
  expect_throw_naming([&] { centroid(points, {0, 1}, {1.0, -5.0, 1.0, 1.0}); },
                      "weights[1]");
  expect_throw_naming([&] { centroid(points, {0, 2}, {1.0, 1.0, inf, 1.0}); }, "weights[2]");
}

TEST(KMeansTest, RejectsBadPointsNamingTheIndex) {
  auto nan_point = blob(10.0, 90.0, 20.0, 4, 23);
  nan_point[2].x = std::nan("");
  auto far_colat = blob(10.0, 90.0, 20.0, 4, 24);
  far_colat[3].y = 500.0;
  auto inf_colat = blob(10.0, 90.0, 20.0, 4, 25);
  inf_colat[1].y = std::numeric_limits<double>::infinity();
  util::Rng rng(26);
  expect_throw_naming([&] { kmeans(nan_point, {}, 2, rng); }, "points[2]");
  expect_throw_naming([&] { kmeans(far_colat, {}, 2, rng); }, "points[3]");
  expect_throw_naming([&] { kmeans(inf_colat, {}, 2, rng); }, "points[1]");
  expect_throw_naming([&] { kmeans_split2(nan_point); }, "points[2]");
  expect_throw_naming([&] { kmeans_split2(far_colat); }, "points[3]");
  expect_throw_naming([&] { centroid(nan_point, {0, 2}, {}); }, "points[2]");
  expect_throw_naming([&] { centroid(far_colat, {3}, {}); }, "points[3]");
}

// Fewer positive weights than clusters used to fail deep inside, as a
// zero-weight centroid.
TEST(KMeansTest, RequiresKPositiveWeights) {
  const auto points = blob(10.0, 90.0, 20.0, 4, 27);
  util::Rng rng(28);
  expect_throw_naming([&] { kmeans(points, {0.0, 2.0, 0.0, 0.0}, 2, rng); }, "k = 2");
  expect_throw_naming([&] { kmeans(points, {0.0, 0.0, 0.0, 0.0}, 1, rng); }, "k = 1");
  EXPECT_NO_THROW(kmeans(points, {0.0, 2.0, 0.0, 1.0}, 2, rng));
}

// With no iteration to run, both entry points returned every point in
// cluster 0 and an inertia against centroid 0 alone (two pairs 180 degrees
// apart gave assignment 0 0 0 0); zero iterations are rejected by name.
TEST(KMeansTest, RejectsZeroMaxIterations) {
  const std::vector<EquirectPoint> points = {{0.0, 90.0}, {1.0, 90.0}, {180.0, 90.0},
                                             {181.0, 90.0}};
  util::Rng rng(29);
  expect_throw_naming([&] { kmeans(points, {}, 2, rng, 0); }, "max_iterations");
  expect_throw_naming([&] { kmeans_split2(points, 0); }, "max_iterations");
  const KMeansResult one = kmeans_split2(points, 1);
  EXPECT_EQ(one.assignment[0], one.assignment[1]);
  EXPECT_NE(one.assignment[0], one.assignment[2]);
  EXPECT_EQ(one.assignment[2], one.assignment[3]);
}

// k-means++ can seed a zero-weight point once every positive weight sits on
// a seed, leaving it a cluster whose members weigh nothing. That cluster
// keeps its seed, as an emptied one does, instead of throwing "centroid of
// zero-weight members" (it threw for 5 of these 20 seeds). centroid() itself
// still rejects members that all weigh zero.
TEST(KMeansTest, ZeroWeightClusterKeepsItsCentroid) {
  const std::vector<EquirectPoint> points = {{0.0, 90.0}, {0.0, 90.0}, {180.0, 90.0}};
  const std::vector<double> weights = {1.0, 1.0, 0.0};
  std::size_t alone = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const KMeansResult result = kmeans(points, weights, 2, rng);
    ASSERT_EQ(result.centroids.size(), 2u);
    EXPECT_EQ(result.assignment[0], result.assignment[1]) << "seed " << seed;
    const EquirectPoint& main = result.centroids[result.assignment[0]];
    EXPECT_EQ(main.x, 0.0) << "seed " << seed;
    EXPECT_EQ(main.y, 90.0) << "seed " << seed;
    EXPECT_EQ(result.inertia, 0.0) << "seed " << seed;
    if (result.assignment[2] != result.assignment[0]) {
      ++alone;
      const EquirectPoint& kept = result.centroids[result.assignment[2]];
      EXPECT_EQ(kept.x, 180.0) << "seed " << seed;
      EXPECT_EQ(kept.y, 90.0) << "seed " << seed;
    }
  }
  EXPECT_GT(alone, 0u);
  expect_throw_naming([&] { centroid(points, {2}, weights); }, "zero-weight");
}

TEST(KMeansTest, KEqualsNPinsEachPoint) {
  const auto points = blob(50.0, 90.0, 30.0, 6, 77);
  util::Rng rng(78);
  const auto result = kmeans(points, {}, points.size(), rng);
  // With k = n every point can claim its own centroid: zero inertia.
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

// --------------------------------------------------------------- Clusterer

TEST(ClustererTest, MergesDenseBlobSplitsFarOnes) {
  auto points = blob(60.0, 80.0, 4.0, 12, 11);
  const auto other = blob(250.0, 100.0, 4.0, 12, 12);
  points.insert(points.end(), other.begin(), other.end());
  const ViewClusterer clusterer;
  const auto clusters = clusterer.cluster(points);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size(), 12u);
  EXPECT_EQ(clusters[1].size(), 12u);
}

TEST(ClustererTest, AllPointsAssignedExactlyOnce) {
  auto points = blob(60.0, 80.0, 10.0, 25, 13);
  const auto stragglers = blob(200.0, 60.0, 40.0, 15, 14);
  points.insert(points.end(), stragglers.begin(), stragglers.end());
  const ViewClusterer clusterer;
  const auto clusters = clusterer.cluster(points);
  std::set<std::size_t> seen;
  for (const auto& cluster : clusters) {
    for (std::size_t idx : cluster) {
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate assignment " << idx;
    }
  }
  EXPECT_EQ(seen.size(), points.size());
}

TEST(ClustererTest, DiameterCapEnforcedRecursively) {
  // A long chain of delta-neighbours would grow one huge cluster (the Fig. 6
  // failure mode); the sigma cap must split it so every final cluster is
  // bounded.
  std::vector<EquirectPoint> chain;
  for (int i = 0; i < 30; ++i)
    chain.push_back(EquirectPoint::make(geometry::Degrees(40.0 + 8.0 * i), geometry::Degrees(90.0)));  // spacing < delta
  ClustererConfig config;
  config.delta = 11.25;
  config.sigma = 45.0;
  const ViewClusterer clusterer(config);
  const auto clusters = clusterer.cluster(chain);
  EXPECT_GT(clusters.size(), 1u);
  for (const auto& cluster : clusters) {
    EXPECT_LE(ViewClusterer::diameter(chain, cluster), config.sigma + 1e-9);
  }
}

TEST(ClustererTest, LiteralSingleSplitModeMatchesPseudocode) {
  std::vector<EquirectPoint> chain;
  for (int i = 0; i < 30; ++i)
    chain.push_back(EquirectPoint::make(geometry::Degrees(40.0 + 8.0 * i), geometry::Degrees(90.0)));
  ClustererConfig config;
  config.recursive_split = false;
  const ViewClusterer clusterer(config);
  const auto clusters = clusterer.cluster(chain);
  // One BFS cluster split exactly once.
  EXPECT_EQ(clusters.size(), 2u);
}

TEST(ClustererTest, SeamStraddlingBlobStaysTogether) {
  const auto points = blob(358.0, 90.0, 5.0, 14, 15);
  const ViewClusterer clusterer;
  const auto clusters = clusterer.cluster(points);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 14u);
}

TEST(ClustererTest, SingletonsRemainSingletons) {
  const std::vector<EquirectPoint> sparse = {EquirectPoint::make(geometry::Degrees(0.0), geometry::Degrees(30.0)),
                                             EquirectPoint::make(geometry::Degrees(120.0), geometry::Degrees(90.0)),
                                             EquirectPoint::make(geometry::Degrees(240.0), geometry::Degrees(150.0))};
  const ViewClusterer clusterer;
  const auto clusters = clusterer.cluster(sparse);
  EXPECT_EQ(clusters.size(), 3u);
}

TEST(ClustererTest, EmptyInputGivesNoClusters) {
  const ViewClusterer clusterer;
  EXPECT_TRUE(clusterer.cluster({}).empty());
}

TEST(ClustererTest, ConfigValidation) {
  ClustererConfig bad;
  bad.delta = 50.0;
  bad.sigma = 45.0;
  EXPECT_THROW(ViewClusterer{bad}, std::invalid_argument);
  bad = {};
  bad.delta = 0.0;
  EXPECT_THROW(ViewClusterer{bad}, std::invalid_argument);
}

TEST(ClustererPropertyTest, RandomizedInvariantsHoldAcrossSeeds) {
  // Algorithm 1's contract, checked over 200 randomized point sets: the
  // output is a partition (every input index exactly once), every cluster
  // respects the sigma diameter cap (recursive_split mode), and clustering
  // is a pure function of its input (bit-identical on a second call).
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed);
    std::vector<EquirectPoint> points;
    // A mixture: a few tight blobs (clusterable mass) plus uniform scatter
    // (singletons and chain-formers), sometimes straddling the lon seam.
    const std::size_t n_blobs = rng.uniform_index(4);  // 0..3
    for (std::size_t b = 0; b < n_blobs; ++b) {
      const double cx = rng.uniform(0.0, 360.0);
      const double cy = rng.uniform(20.0, 160.0);
      const double radius = rng.uniform(1.0, 25.0);
      const std::size_t count = 2 + rng.uniform_index(12);
      for (std::size_t i = 0; i < count; ++i) {
        const double x = cx + rng.uniform(-radius, radius);
        const double y = std::clamp(cy + rng.uniform(-radius, radius), 0.0, 180.0);
        points.push_back(EquirectPoint::make(geometry::Degrees(x), geometry::Degrees(y)));
      }
    }
    const std::size_t scatter = rng.uniform_index(10);
    for (std::size_t i = 0; i < scatter; ++i) {
      points.push_back(EquirectPoint::make(geometry::Degrees(rng.uniform(0.0, 360.0)),
                                           geometry::Degrees(rng.uniform(0.0, 180.0))));
    }

    ClustererConfig config;
    config.sigma = rng.uniform(20.0, 90.0);
    config.delta = config.sigma / rng.uniform(2.0, 6.0);
    const ViewClusterer clusterer(config);
    const auto clusters = clusterer.cluster(points);

    // Partition: all points, no duplicates, no empty clusters.
    std::set<std::size_t> seen;
    for (const auto& cluster : clusters) {
      EXPECT_FALSE(cluster.empty()) << "seed " << seed;
      for (const std::size_t idx : cluster) {
        ASSERT_LT(idx, points.size()) << "seed " << seed;
        EXPECT_TRUE(seen.insert(idx).second)
            << "seed " << seed << ": point " << idx << " in two clusters";
      }
    }
    EXPECT_EQ(seen.size(), points.size()) << "seed " << seed;

    // Diameter cap is a real invariant in recursive_split mode.
    for (const auto& cluster : clusters) {
      EXPECT_LE(ViewClusterer::diameter(points, cluster), config.sigma + 1e-9)
          << "seed " << seed;
    }

    // Determinism: same input, same output — ordering included.
    EXPECT_EQ(clusterer.cluster(points), clusters) << "seed " << seed;
  }
}

// ------------------------------------------------------------ PtileBuilder

TEST(PtileBuilderTest, PopularClusterBecomesPtile) {
  const PtileBuilder builder(kFov);
  const auto centers = blob(120.0, 90.0, 6.0, 12, 21);
  const auto result = builder.build(centers);
  ASSERT_EQ(result.ptiles.size(), 1u);
  EXPECT_EQ(result.ptiles[0].users.size(), 12u);
  EXPECT_TRUE(result.uncovered_users.empty());
  // The Ptile footprint covers (nearly all of) every member's viewport —
  // boundary tiles grazed by less than the overlap threshold are trimmed,
  // exactly like the client's own FoV-tile rule.
  for (const auto& center : centers) {
    const Viewport vp(center);
    EXPECT_GE(result.ptiles[0].area.coverage_of(vp.area()), 0.85);
  }
  // With trimming disabled the cover is exact.
  PtileBuildConfig untrimmed;
  untrimmed.tile_overlap_threshold = 0.0;
  const PtileBuilder full_builder(kFov, untrimmed);
  const auto full = full_builder.build(centers);
  ASSERT_EQ(full.ptiles.size(), 1u);
  for (const auto& center : centers) {
    const Viewport vp(center);
    EXPECT_GE(full.ptiles[0].area.coverage_of(vp.area()), 1.0 - 1e-9);
  }
}

TEST(PtileBuilderTest, MinUserRuleFiltersSmallClusters) {
  // 4 users < min_users (5): no Ptile, everyone uncovered.
  const PtileBuilder builder(kFov);
  const auto centers = blob(120.0, 90.0, 4.0, 4, 22);
  const auto result = builder.build(centers);
  EXPECT_TRUE(result.ptiles.empty());
  EXPECT_EQ(result.uncovered_users.size(), 4u);
}

TEST(PtileBuilderTest, PtilesSortedByPopularity) {
  auto centers = blob(60.0, 90.0, 4.0, 20, 23);
  const auto minor = blob(250.0, 90.0, 4.0, 7, 24);
  centers.insert(centers.end(), minor.begin(), minor.end());
  const PtileBuilder builder(kFov);
  const auto result = builder.build(centers);
  ASSERT_EQ(result.ptiles.size(), 2u);
  EXPECT_GE(result.ptiles[0].users.size(), result.ptiles[1].users.size());
  EXPECT_EQ(result.ptiles[0].users.size(), 20u);
}

TEST(PtileBuilderTest, PtileIsGridAligned) {
  const PtileBuilder builder(kFov);
  const auto centers = blob(100.0, 95.0, 3.0, 8, 25);
  const auto result = builder.build(centers);
  ASSERT_EQ(result.ptiles.size(), 1u);
  const auto& ptile = result.ptiles[0];
  // Footprint area equals the tile-rect area.
  EXPECT_NEAR(ptile.area.area_deg2(),
              static_cast<double>(ptile.rect.tile_count()) * 45.0 * 45.0, 1e-6);
}

TEST(PtileBuilderTest, CoveringQueryFindsPtile) {
  const PtileBuilder builder(kFov);
  const auto centers = blob(120.0, 95.0, 3.0, 10, 26);
  const auto result = builder.build(centers);
  ASSERT_FALSE(result.ptiles.empty());
  EXPECT_NE(result.covering(Viewport(EquirectPoint::make(geometry::Degrees(120.0), geometry::Degrees(95.0)))), nullptr);
  EXPECT_EQ(result.covering(Viewport(EquirectPoint::make(geometry::Degrees(300.0), geometry::Degrees(95.0)))), nullptr);
}

TEST(PtileBuilderTest, BackgroundBlocksTileTheComplement) {
  const PtileBuilder builder(kFov);
  const auto centers = blob(120.0, 95.0, 3.0, 10, 27);
  const auto result = builder.build(centers);
  ASSERT_FALSE(result.ptiles.empty());
  const auto blocks = background_block_areas(result.ptiles[0]);
  EXPECT_GE(blocks.size(), 1u);
  EXPECT_LE(blocks.size(), 3u);
  double total = result.ptiles[0].area.area_fraction();
  for (double b : blocks) {
    EXPECT_GT(b, 0.0);
    total += b;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PtileBuilderTest, FullWidthPtileHasNoRingBlock) {
  // A cluster spanning all longitudes: the Ptile covers a full band; only
  // the strips above/below remain.
  PtileBuildConfig config;
  config.min_users = 2;
  config.clustering.sigma = 360.0;
  config.clustering.delta = 90.0;
  const PtileBuilder builder(kFov, config);
  std::vector<EquirectPoint> centers;
  for (int i = 0; i < 8; ++i) centers.push_back(EquirectPoint::make(geometry::Degrees(i * 45.0), geometry::Degrees(90.0)));
  const auto result = builder.build(centers);
  ASSERT_EQ(result.ptiles.size(), 1u);
  const auto blocks = background_block_areas(result.ptiles[0]);
  double total = result.ptiles[0].area.area_fraction();
  for (double b : blocks) total += b;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_LE(blocks.size(), 2u);
}

// ----------------------------------------------------------------- Ftile

TEST(FtileLayoutTest, PartitionsAllBlocksIntoTenTiles) {
  const auto centers = blob(120.0, 90.0, 10.0, 30, 31);
  const FtileLayout layout(centers, FtileLayoutConfig{}, kFov, kSeed);
  EXPECT_LE(layout.tile_count(), 10u);
  EXPECT_GE(layout.tile_count(), 2u);
  double total = 0.0;
  std::size_t blocks = 0;
  for (std::size_t t = 0; t < layout.tile_count(); ++t) {
    total += layout.tile_areas()[t];
    blocks += layout.tile_blocks()[t].size();
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(blocks, 450u);
}

TEST(FtileLayoutTest, ViewportOverlapsFewTiles) {
  // View-aligned tiling: the FoV of the popular region intersects a small
  // subset of the ten tiles.
  const auto centers = blob(120.0, 90.0, 8.0, 30, 32);
  const FtileLayout layout(centers, FtileLayoutConfig{}, kFov, kSeed);
  const auto selected = layout.tiles_overlapping(Viewport(EquirectPoint::make(geometry::Degrees(120.0), geometry::Degrees(90.0))));
  EXPECT_GE(selected.size(), 1u);
  EXPECT_LT(selected.size(), layout.tile_count());
}

TEST(FtileLayoutTest, SelectedTilesCoverTheViewport) {
  const auto centers = blob(200.0, 100.0, 8.0, 30, 33);
  const FtileLayout layout(centers, FtileLayoutConfig{}, kFov, kSeed);
  const Viewport vp(EquirectPoint::make(geometry::Degrees(200.0), geometry::Degrees(100.0)));
  // Default selection skips tiles the FoV merely grazes, so coverage is
  // high but can fall short of exact; a zero threshold covers exactly.
  const auto selected = layout.tiles_overlapping(vp);
  EXPECT_GE(layout.coverage(vp, selected), 0.85);
  const auto all_touched = layout.tiles_overlapping(vp, 0.0);
  EXPECT_NEAR(layout.coverage(vp, all_touched), 1.0, 1e-9);
  EXPECT_LT(layout.coverage(vp, {}), 0.01);
}

TEST(FtileLayoutTest, DeterministicForSeed) {
  const auto centers = blob(120.0, 90.0, 8.0, 30, 34);
  const FtileLayout a(centers, FtileLayoutConfig{}, kFov, kSeed);
  const FtileLayout b(centers, FtileLayoutConfig{}, kFov, kSeed);
  ASSERT_EQ(a.tile_count(), b.tile_count());
  EXPECT_EQ(a.tile_areas(), b.tile_areas());
}

// The per-block loops tiles_overlapping() and coverage() ran before they
// tested rows and columns separately: every one of the 450 blocks rebuilds
// its own rect and center and tests it against the viewport. The block
// owners come from the public tile_blocks().
struct PerBlockReference {
  geometry::TileGrid blocks;
  std::vector<std::size_t> block_owner;

  PerBlockReference(const FtileLayout& layout, const FtileLayoutConfig& config)
      : blocks(config.block_rows, config.block_cols),
        block_owner(blocks.tile_count(), layout.tile_count()) {
    for (std::size_t t = 0; t < layout.tile_count(); ++t) {
      for (const auto& idx : layout.tile_blocks()[t])
        block_owner[idx.row * blocks.cols() + idx.col] = t;
    }
  }

  bool block_in_view(std::size_t b, const geometry::EquirectRect& area) const {
    const geometry::TileIndex idx{b / blocks.cols(), b % blocks.cols()};
    const auto block_area = blocks.tile_area(idx);
    const EquirectPoint center{
        geometry::wrap360(
            geometry::Degrees(block_area.lon.lo + block_area.lon.width / 2.0))
            .value(),
        (block_area.y_lo + block_area.y_hi) / 2.0};
    return area.contains(center);
  }

  std::vector<std::size_t> tiles_overlapping(const FtileLayout& layout, const Viewport& vp,
                                             double min_block_fraction) const {
    std::vector<std::size_t> hits(layout.tile_count(), 0);
    const auto area = vp.area();
    for (std::size_t b = 0; b < block_owner.size(); ++b) {
      if (block_in_view(b, area)) ++hits[block_owner[b]];
    }
    std::vector<std::size_t> out;
    for (std::size_t t = 0; t < hits.size(); ++t) {
      if (hits[t] == 0) continue;
      const double fraction = static_cast<double>(hits[t]) /
                              static_cast<double>(layout.tile_blocks()[t].size());
      if (fraction >= min_block_fraction) out.push_back(t);
    }
    return out;
  }

  double coverage(const FtileLayout& layout, const Viewport& vp,
                  const std::vector<std::size_t>& tile_ids) const {
    std::vector<bool> selected(layout.tile_count(), false);
    for (std::size_t t : tile_ids) selected[t] = true;
    const auto area = vp.area();
    std::size_t in_view = 0, covered = 0;
    for (std::size_t b = 0; b < block_owner.size(); ++b) {
      if (!block_in_view(b, area)) continue;
      ++in_view;
      if (selected[block_owner[b]]) ++covered;
    }
    if (in_view == 0) return 1.0;
    return static_cast<double>(covered) / static_cast<double>(in_view);
  }
};

// A viewport center and FoV drawn to hit the awkward cases: the 0/360 seam,
// both poles, and edges that land exactly on block centers (block centers
// sit on a 12 x 12 degree lattice offset by 6, so a center on a multiple of
// 6 with a FoV that is a multiple of 12 puts its edges on that lattice).
Viewport draw_viewport(util::Rng& rng) {
  double x = rng.uniform(0.0, 360.0);
  double y = rng.uniform(0.0, 180.0);
  double fov = rng.uniform(60.0, 120.0);
  switch (rng.uniform_index(5)) {
    case 0:  // across the seam
      x = rng.uniform(-20.0, 20.0);
      break;
    case 1:  // near a pole
      y = rng.uniform_index(2) == 0 ? rng.uniform(0.0, 15.0) : rng.uniform(165.0, 180.0);
      break;
    case 2:  // edges on the block-center lattice
      x = 6.0 * static_cast<double>(rng.uniform_index(61));
      y = 6.0 * static_cast<double>(rng.uniform_index(31));
      fov = 12.0 * static_cast<double>(5 + rng.uniform_index(6));
      break;
    default:
      break;
  }
  return Viewport(EquirectPoint::make(geometry::Degrees(x), geometry::Degrees(y)),
                  geometry::Degrees(fov), geometry::Degrees(fov));
}

TEST(FtileLayoutTest, RowColumnContainmentMatchesPerBlockReference) {
  const trace::HeadTraceSynthesizer synth(kSeed);
  const FtileLayoutConfig config;
  util::Rng rng(2024);
  std::size_t viewports = 0;
  for (const std::size_t video : {0u, 6u}) {
    trace::VideoInfo info = trace::test_videos()[video];
    info.duration_s = 6.0;
    const auto traces = synth.synthesize_all(info, trace::kTrainingUsers);
    for (const double t0 : {0.0, 3.0, 5.0}) {
      std::vector<EquirectPoint> centers;
      for (const auto& trace : traces) centers.push_back(trace.mean_center(t0, t0 + 1.0));
      const FtileLayout layout(centers, config, kFov, kSeed);
      const PerBlockReference reference(layout, config);
      for (int i = 0; i < 100; ++i, ++viewports) {
        const Viewport vp = draw_viewport(rng);
        for (const double fraction : {0.0, 0.2, 1.0}) {
          const auto selected = layout.tiles_overlapping(vp, fraction);
          ASSERT_EQ(selected, reference.tiles_overlapping(layout, vp, fraction))
              << "video " << video << " t0 " << t0 << " viewport " << i;
          const double got = layout.coverage(vp, selected);
          const double want = reference.coverage(layout, vp, selected);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want));
        }
        std::vector<std::size_t> subset;
        for (std::size_t t = 0; t < layout.tile_count(); ++t) {
          if (rng.uniform_index(2) == 0) subset.push_back(t);
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(layout.coverage(vp, subset)),
                  std::bit_cast<std::uint64_t>(reference.coverage(layout, vp, subset)));
      }
    }
  }
  EXPECT_GE(viewports, 500u);
}

// split() is tiles_overlapping()'s selection as two (count, area) sides,
// each area summed in tile order: the Ftile planner reads it instead of
// building both tile lists per lookahead segment. A BlocksInView is only
// read by layouts of its own block grid.
TEST(FtileLayoutTest, SplitSumsTheSelectedAndOtherTilesInTileOrder) {
  const trace::HeadTraceSynthesizer synth(kSeed);
  util::Rng rng(2025);
  trace::VideoInfo info = trace::test_videos()[3];
  info.duration_s = 4.0;
  const auto traces = synth.synthesize_all(info, trace::kTrainingUsers);
  std::size_t both_sides = 0;
  for (const double t0 : {0.0, 2.0}) {
    std::vector<EquirectPoint> centers;
    for (const auto& trace : traces) centers.push_back(trace.mean_center(t0, t0 + 1.0));
    const FtileLayout layout(centers, FtileLayoutConfig{}, kFov, kSeed);
    for (int i = 0; i < 200; ++i) {
      const Viewport vp = draw_viewport(rng);
      for (const double fraction : {0.0, 0.2, 1.0}) {
        const std::vector<std::size_t> selected = layout.tiles_overlapping(vp, fraction);
        FtileLayout::TileSplit want;
        for (std::size_t t = 0; t < layout.tile_count(); ++t) {
          if (std::find(selected.begin(), selected.end(), t) != selected.end()) {
            ++want.selected_tiles;
            want.selected_area += layout.tile_areas()[t];
          } else {
            ++want.other_tiles;
            want.other_area += layout.tile_areas()[t];
          }
        }
        const FtileLayout::TileSplit got = layout.split(layout.blocks_in_view(vp), fraction);
        ASSERT_EQ(got.selected_tiles, want.selected_tiles) << "viewport " << i;
        ASSERT_EQ(got.other_tiles, want.other_tiles) << "viewport " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.selected_area),
                  std::bit_cast<std::uint64_t>(want.selected_area));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.other_area),
                  std::bit_cast<std::uint64_t>(want.other_area));
        both_sides += got.selected_tiles > 0 && got.other_tiles > 0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(both_sides, 100u);
  const auto centers = blob(120.0, 90.0, 8.0, 10, 37);
  const FtileLayout layout(centers, FtileLayoutConfig{}, kFov, kSeed);
  const Viewport vp(EquirectPoint::make(geometry::Degrees(0.0), geometry::Degrees(90.0)));
  EXPECT_THROW(layout.split(layout.blocks_in_view(vp), 1.5), std::invalid_argument);
  // A view of another block grid is rejected, not misread.
  FtileLayoutConfig coarse;
  coarse.block_rows = 5;
  coarse.block_cols = 10;
  const FtileLayout other(centers, coarse, kFov, kSeed);
  EXPECT_THROW(layout.split(other.blocks_in_view(vp)), std::invalid_argument);
  EXPECT_THROW(layout.tiles_overlapping(other.blocks_in_view(vp)), std::invalid_argument);
}

// ----------------------------------------------------------------- Heatmap

TEST(ViewHeatmapTest, CentersAndTotals) {
  ViewHeatmap heatmap(18, 36);  // 10-degree cells
  heatmap.add_center(EquirectPoint::make(geometry::Degrees(95.0), geometry::Degrees(95.0)));
  heatmap.add_center(EquirectPoint::make(geometry::Degrees(95.0), geometry::Degrees(95.0)));
  heatmap.add_center(EquirectPoint::make(geometry::Degrees(275.0), geometry::Degrees(35.0)));
  EXPECT_DOUBLE_EQ(heatmap.total(), 3.0);
  EXPECT_DOUBLE_EQ(heatmap.max_value(), 2.0);
  EXPECT_DOUBLE_EQ(heatmap.at(9, 9), 2.0);
  EXPECT_DOUBLE_EQ(heatmap.at(3, 27), 1.0);
  EXPECT_THROW(heatmap.at(18, 0), std::invalid_argument);
}

TEST(ViewHeatmapTest, ViewportAddsFovSizedMass) {
  ViewHeatmap heatmap(18, 36);
  heatmap.add_viewport(Viewport(EquirectPoint::make(geometry::Degrees(180.0), geometry::Degrees(90.0))));
  // A 100x100 viewport covers ~100/10 x 100/10 = ~100 cells of 10 degrees.
  EXPECT_NEAR(heatmap.total(), 100.0, 15.0);
  EXPECT_DOUBLE_EQ(heatmap.max_value(), 1.0);
}

TEST(ViewHeatmapTest, MassInCapturesAttention) {
  ViewHeatmap heatmap(18, 36);
  for (int i = 0; i < 5; ++i)
    heatmap.add_center(EquirectPoint::make(geometry::Degrees(100.0 + i), geometry::Degrees(90.0)));
  heatmap.add_center(EquirectPoint::make(geometry::Degrees(300.0), geometry::Degrees(90.0)));
  const auto hot =
      geometry::EquirectRect::make(geometry::LonInterval::make(geometry::Degrees(90.0), geometry::Degrees(30.0)), geometry::Degrees(70.0), geometry::Degrees(110.0));
  EXPECT_NEAR(heatmap.mass_in(hot), 5.0 / 6.0, 1e-9);
}

TEST(ViewHeatmapTest, RenderShapeAndOverlay) {
  ViewHeatmap heatmap(6, 12);
  heatmap.add_center(EquirectPoint::make(geometry::Degrees(95.0), geometry::Degrees(95.0)));
  Ptile ptile;
  ptile.area = geometry::EquirectRect::make(geometry::LonInterval::make(geometry::Degrees(60.0), geometry::Degrees(90.0)), geometry::Degrees(60.0), geometry::Degrees(120.0));
  const std::string art = heatmap.render({ptile});
  // 6 lines of 12 characters.
  EXPECT_EQ(art.size(), 6u * 13u);
  EXPECT_NE(art.find('['), std::string::npos);
  EXPECT_NE(art.find(']'), std::string::npos);
  EXPECT_NE(art.find('@'), std::string::npos);  // the hot cell
}

// A NaN center used to build ten tiles around a view that holds no block.
TEST(FtileLayoutTest, RejectsBadCentersNamingTheIndex) {
  auto centers = blob(120.0, 90.0, 8.0, 10, 36);
  centers[4].y = std::nan("");
  expect_throw_naming([&] { FtileLayout(centers, FtileLayoutConfig{}, kFov, kSeed); },
                      "centers[4]");
  centers[4].y = -1.0;
  expect_throw_naming([&] { FtileLayout(centers, FtileLayoutConfig{}, kFov, kSeed); },
                      "centers[4]");
  centers[4] = EquirectPoint{std::numeric_limits<double>::infinity(), 90.0};
  expect_throw_naming([&] { FtileLayout(centers, FtileLayoutConfig{}, kFov, kSeed); },
                      "centers[4]");
}

TEST(FtileLayoutTest, CoverageRejectsBadTileId) {
  const auto centers = blob(120.0, 90.0, 8.0, 10, 35);
  const FtileLayout layout(centers, FtileLayoutConfig{}, kFov, kSeed);
  EXPECT_THROW(layout.coverage(Viewport(EquirectPoint::make(geometry::Degrees(0.0), geometry::Degrees(90.0))), {999}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ps360::ptile
