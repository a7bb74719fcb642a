// Bit identity of the k-means behind Ftile layouts and Algorithm 1's
// splits (ptile/kmeans.cpp), of FtileLayout's view counts and of
// geometry::wrapped_distance against the code they replaced, kept here as
// the reference: a wrapped distance that takes circular_distance's
// branchy wrap, Lloyd's iterations that call centroid() with fresh member
// lists per cluster per iteration (recomputing every member's cos and
// sin), k-means++ seeding that takes each point's distance to every seed
// so far in every round, and a view count that tests each of the 450 block
// centers against every training view. The fast paths must reproduce
// their distances, assignments, centroids and inertia bit for bit, and
// every Ftile layout of the eight paper videos.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ptile/ftile.h"
#include "ptile/kmeans.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace ps360::ptile {
namespace {

using geometry::Degrees;
using geometry::EquirectPoint;

namespace reference {

double circular_wrapped_distance(const EquirectPoint& a, const EquirectPoint& b) {
  const double dx = geometry::circular_distance(Degrees(a.x), Degrees(b.x)).value();
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

double weight_of(const std::vector<double>& weights, std::size_t i) {
  return weights.empty() ? 1.0 : weights[i];
}

EquirectPoint centroid(const std::vector<EquirectPoint>& points,
                       const std::vector<std::size_t>& member_indices,
                       const std::vector<double>& weights) {
  double sx = 0.0, sy = 0.0, y_sum = 0.0, w_sum = 0.0;
  for (std::size_t idx : member_indices) {
    const double w = weights.empty() ? 1.0 : weights[idx];
    const double rad = geometry::to_radians(geometry::Degrees(points[idx].x)).value();
    sx += w * std::cos(rad);
    sy += w * std::sin(rad);
    y_sum += w * points[idx].y;
    w_sum += w;
  }
  if (!(w_sum > 0.0)) throw std::invalid_argument("centroid of zero-weight members");
  double x;
  if (std::fabs(sx) < 1e-12 && std::fabs(sy) < 1e-12) {
    x = points[member_indices.front()].x;  // antipodal degenerate case
  } else {
    x = geometry::wrap360(geometry::to_degrees(geometry::Radians(std::atan2(sy, sx))))
            .value();
  }
  return EquirectPoint{x, std::clamp(y_sum / w_sum, 0.0, 180.0)};
}

KMeansResult lloyd_iterate(const std::vector<EquirectPoint>& points,
                           const std::vector<double>& weights,
                           std::vector<EquirectPoint> centroids,
                           std::size_t max_iterations) {
  const std::size_t k = centroids.size();
  KMeansResult result;
  result.assignment.assign(points.size(), 0);

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = circular_wrapped_distance(points[i], centroids[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      if (result.assignment[i] != best_c) {
        result.assignment[i] = best_c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;

    std::vector<std::vector<std::size_t>> members(k);
    for (std::size_t i = 0; i < points.size(); ++i)
      members[result.assignment[i]].push_back(i);
    for (std::size_t c = 0; c < k; ++c) {
      if (!members[c].empty()) centroids[c] = centroid(points, members[c], weights);
    }
  }

  result.centroids = std::move(centroids);
  result.inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d =
        circular_wrapped_distance(points[i], result.centroids[result.assignment[i]]);
    result.inertia += weight_of(weights, i) * d * d;
  }
  return result;
}

KMeansResult kmeans(const std::vector<EquirectPoint>& points,
                    const std::vector<double>& weights, std::size_t k, util::Rng& rng,
                    std::size_t max_iterations) {
  std::vector<EquirectPoint> seeds;
  seeds.reserve(k);
  double w_total = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) w_total += weight_of(weights, i);
  {
    double u = rng.uniform() * w_total;
    std::size_t pick = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      u -= weight_of(weights, i);
      if (u <= 0.0) {
        pick = i;
        break;
      }
    }
    seeds.push_back(points[pick]);
  }
  std::vector<double> d2(points.size());
  while (seeds.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& s : seeds)
        best = std::min(best, circular_wrapped_distance(points[i], s));
      d2[i] = weight_of(weights, i) * best * best;
      total += d2[i];
    }
    std::size_t pick = points.size() - 1;
    if (total > 0.0) {
      double u = rng.uniform() * total;
      for (std::size_t i = 0; i < points.size(); ++i) {
        u -= d2[i];
        if (u <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = static_cast<std::size_t>(rng.uniform_index(points.size()));
    }
    seeds.push_back(points[pick]);
  }
  return lloyd_iterate(points, weights, std::move(seeds), max_iterations);
}

KMeansResult kmeans_split2(const std::vector<EquirectPoint>& points,
                           std::size_t max_iterations) {
  std::size_t a = 0, b = 1;
  double best = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const double d = circular_wrapped_distance(points[i], points[j]);
      if (d > best) {
        best = d;
        a = i;
        b = j;
      }
    }
  }
  return lloyd_iterate(points, {}, {points[a], points[b]}, max_iterations);
}

// FtileLayout's tiles from the per-block view count: every block center
// tested against every training view's rect.
struct Layout {
  std::vector<std::vector<geometry::TileIndex>> tile_blocks;
  std::vector<double> tile_areas;
};

Layout ftile_layout(const std::vector<EquirectPoint>& centers,
                    const FtileLayoutConfig& config, Degrees fov, std::uint64_t seed) {
  const geometry::TileGrid blocks(config.block_rows, config.block_cols);
  std::vector<geometry::EquirectRect> user_views;
  for (const auto& user_center : centers)
    user_views.push_back(geometry::Viewport(user_center, fov, fov).area());
  std::vector<EquirectPoint> block_centers;
  std::vector<double> weights;
  for (std::size_t r = 0; r < blocks.rows(); ++r) {
    for (std::size_t c = 0; c < blocks.cols(); ++c) {
      const auto area = blocks.tile_area(geometry::TileIndex{r, c});
      const EquirectPoint center{
          geometry::wrap360(Degrees(area.lon.lo + area.lon.width / 2.0)).value(),
          (area.y_lo + area.y_hi) / 2.0};
      block_centers.push_back(center);
      double views = 0.0;
      for (const auto& view : user_views) {
        if (view.contains(center)) views += 1.0;
      }
      weights.push_back(1.0 + views);
    }
  }
  util::Rng rng(util::derive_seed(seed, 0xF71E5ULL));
  const KMeansResult clustering = kmeans(block_centers, weights, config.tile_count, rng, 100);

  Layout layout;
  std::vector<std::vector<geometry::TileIndex>> tiles(config.tile_count);
  std::vector<double> areas(config.tile_count, 0.0);
  const std::size_t n_blocks = blocks.tile_count();
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t tile = clustering.assignment[b];
    tiles[tile].push_back(geometry::TileIndex{b / blocks.cols(), b % blocks.cols()});
    areas[tile] += 1.0 / static_cast<double>(n_blocks);
  }
  for (std::size_t t = 0; t < config.tile_count; ++t) {
    if (tiles[t].empty()) continue;
    layout.tile_blocks.push_back(std::move(tiles[t]));
    layout.tile_areas.push_back(areas[t]);
  }
  return layout;
}

}  // namespace reference

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same(const KMeansResult& got, const KMeansResult& want, const std::string& label) {
  ASSERT_EQ(got.assignment, want.assignment) << label;
  ASSERT_EQ(got.centroids.size(), want.centroids.size()) << label;
  for (std::size_t c = 0; c < want.centroids.size(); ++c) {
    EXPECT_EQ(bits(got.centroids[c].x), bits(want.centroids[c].x)) << label << " c" << c;
    EXPECT_EQ(bits(got.centroids[c].y), bits(want.centroids[c].y)) << label << " c" << c;
  }
  EXPECT_EQ(bits(got.inertia), bits(want.inertia)) << label;
}

// The largest double below 360: the seam's far side.
const double kSeamEdge = std::nextafter(360.0, 0.0);

// A point set drawn to hit the awkward cases: seam longitudes (0 and just
// below 360), the poles, exact duplicates and antipodal pairs whose
// resultant vanishes, mixed into uniform and blob-like draws.
std::vector<EquirectPoint> draw_points(util::Rng& rng, std::size_t n) {
  std::vector<EquirectPoint> points;
  const double blob_x = rng.uniform(0.0, 360.0);
  const double blob_y = rng.uniform(20.0, 160.0);
  while (points.size() < n) {
    EquirectPoint p;
    switch (rng.uniform_index(7)) {
      case 0:
        p = EquirectPoint{rng.uniform_index(2) == 0 ? 0.0 : kSeamEdge, rng.uniform(0.0, 180.0)};
        break;
      case 1:
        p = EquirectPoint{rng.uniform(0.0, 360.0), rng.uniform_index(2) == 0 ? 0.0 : 180.0};
        break;
      case 2:  // a duplicate of an earlier point
        p = points.empty() ? EquirectPoint{90.0, 90.0}
                           : points[rng.uniform_index(points.size())];
        break;
      case 3:  // the antipode (in longitude) of an earlier point
        if (!points.empty()) {
          const EquirectPoint& q = points[rng.uniform_index(points.size())];
          p = EquirectPoint{geometry::wrap360(Degrees(q.x + 180.0)).value(), q.y};
        }
        break;
      case 4:
      case 5:
        p = EquirectPoint::make(Degrees(blob_x + rng.uniform(-15.0, 15.0)),
                                Degrees(std::clamp(blob_y + rng.uniform(-15.0, 15.0), 0.0,
                                                   180.0)));
        break;
      default:
        p = EquirectPoint{rng.uniform(0.0, 360.0), rng.uniform(0.0, 180.0)};
        break;
    }
    points.push_back(p);
  }
  return points;
}

// Empty (all ones), integer view-count-like weights, or real weights, any
// of them with zeros, keeping at least `positive` entries above zero.
std::vector<double> draw_weights(util::Rng& rng, std::size_t n, std::size_t positive) {
  const std::uint64_t kind = rng.uniform_index(4);
  if (kind == 0) return {};
  std::vector<double> weights(n);
  for (double& w : weights) {
    w = kind == 1 ? 1.0 + static_cast<double>(rng.uniform_index(40)) : rng.uniform(0.01, 5.0);
  }
  if (kind == 3) {
    // Zero all but `positive` randomly kept entries, some of the time.
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.uniform_index(3) == 0) weights[i] = 0.0;
    }
    std::size_t have = 0;
    for (double w : weights) have += w > 0.0 ? 1 : 0;
    for (std::size_t i = 0; have < positive; ++i) {
      if (weights[i] == 0.0) {
        weights[i] = 1.0;
        ++have;
      }
    }
  }
  return weights;
}

// Longitudes on and around every case of the wrap: both zeros, the seam,
// a half turn and a whole turn either way, beyond one turn, subnormal and
// huge differences, infinities and NaN; colatitudes in and out of range.
TEST(WrappedDistanceBitIdentity, MatchesCircularDistanceReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> xs = {0.0, -0.0, kSeamEdge, 360.0, -360.0, 180.0, -180.0,
                            std::nextafter(180.0, 0.0), std::nextafter(180.0, 360.0),
                            90.0, 270.0, 359.0, 1.0, 540.0, -540.0, 720.0, 1e300, -1e300,
                            std::numeric_limits<double>::denorm_min(), 1e-300, inf, -inf,
                            nan};
  util::Rng rng(360);
  for (int i = 0; i < 200; ++i) xs.push_back(rng.uniform(-800.0, 800.0));
  for (int i = 0; i < 200; ++i) xs.push_back(rng.uniform(0.0, 360.0));
  const std::vector<double> ys = {0.0, 90.0, 180.0, 45.5, -3.0, 500.0, nan};
  std::size_t cases = 0;
  for (const double ax : xs) {
    for (const double bx : xs) {
      const double ay = ys[cases % ys.size()];
      const double by = ys[(cases / ys.size()) % ys.size()];
      const EquirectPoint a{ax, ay};
      const EquirectPoint b{bx, by};
      ASSERT_EQ(bits(geometry::wrapped_distance(a, b)),
                bits(reference::circular_wrapped_distance(a, b)))
          << "a = (" << ax << ", " << ay << "), b = (" << bx << ", " << by << ")";
      ++cases;
    }
  }
  EXPECT_GT(cases, 100000u);
}

TEST(KMeansBitIdentity, SeededBatteryMatchesReference) {
  util::Rng rng(2026);
  std::size_t kmeans_cases = 0, split_cases = 0, zero_weight_throws = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(trial % 10 == 0 ? 450 : 60);
    const std::vector<EquirectPoint> points = draw_points(rng, n);
    const std::size_t max_iterations = 1 + rng.uniform_index(100);
    const std::string label = "trial " + std::to_string(trial) + " n " + std::to_string(n) +
                              " iterations " + std::to_string(max_iterations);
    if (n >= 2 && rng.uniform_index(4) == 0) {
      expect_same(kmeans_split2(points, max_iterations),
                  reference::kmeans_split2(points, max_iterations), label + " split2");
      ++split_cases;
      continue;
    }
    std::size_t k = 1;
    switch (rng.uniform_index(4)) {
      case 0:
        k = 1;
        break;
      case 1:
        k = n;
        break;
      default:
        k = 1 + rng.uniform_index(std::min<std::size_t>(n, 12));
        break;
    }
    const std::vector<double> weights = draw_weights(rng, n, k);
    const std::uint64_t seed = rng.next_u64();
    util::Rng fast_rng(seed);
    util::Rng reference_rng(seed);
    // A seed can land on a zero-weight point and leave it a cluster of its
    // own. The reference rejects that cluster's zero-weight centroid; the
    // fast path keeps the cluster's previous centroid, after the same
    // seeding draws.
    KMeansResult want;
    try {
      want = reference::kmeans(points, weights, k, reference_rng, max_iterations);
    } catch (const std::invalid_argument&) {
      const KMeansResult got = kmeans(points, weights, k, fast_rng, max_iterations);
      EXPECT_EQ(got.centroids.size(), k) << label;
      EXPECT_TRUE(std::isfinite(got.inertia)) << label;
      EXPECT_EQ(fast_rng.next_u64(), reference_rng.next_u64()) << label << " rng stream";
      ++zero_weight_throws;
      continue;
    }
    expect_same(kmeans(points, weights, k, fast_rng, max_iterations), want,
                label + " k " + std::to_string(k));
    EXPECT_EQ(fast_rng.next_u64(), reference_rng.next_u64()) << label << " rng stream";
    ++kmeans_cases;
  }
  EXPECT_GE(kmeans_cases, 350u);
  EXPECT_GE(split_cases, 100u);
  EXPECT_LE(zero_weight_throws, 30u);
}

// Antipodal clusters keep their first member's longitude; the fast path's
// per-cluster sums must see the same vanishing resultant.
TEST(KMeansBitIdentity, AntipodalCentroidMatchesReference) {
  const std::vector<EquirectPoint> points = {{0.0, 90.0}, {180.0, 90.0}, {10.0, 80.0},
                                             {190.0, 80.0}};
  for (const std::size_t iterations : {1u, 2u, 100u}) {
    util::Rng fast_rng(5), reference_rng(5);
    const KMeansResult got = kmeans(points, {}, 1, fast_rng, iterations);
    expect_same(got, reference::kmeans(points, {}, 1, reference_rng, iterations),
                "antipodal");
    EXPECT_EQ(got.centroids[0].x, 0.0);
  }
}

// Every segment's layout of the eight paper videos at the default workload
// (seed and FoV as VideoWorkload::ftile sets them), at full length in an
// optimized build and over each video's first 60 s in an unoptimized one.
TEST(FtileBitIdentity, EveryPaperSegmentMatchesReference) {
#if defined(__OPTIMIZE__)
  constexpr double kMaxSeconds = std::numeric_limits<double>::infinity();
#else
  constexpr double kMaxSeconds = 60.0;
#endif
  std::size_t layouts = 0;
  for (trace::VideoInfo video : trace::test_videos()) {
    video.duration_s = std::min(video.duration_s, kMaxSeconds);
    const sim::VideoWorkload workload(video, sim::WorkloadConfig{});
    const sim::WorkloadConfig& config = workload.config();
    for (std::size_t k = 0; k < workload.segment_count(); ++k, ++layouts) {
      const FtileLayout& layout = workload.ftile(k);
      const reference::Layout want =
          reference::ftile_layout(workload.training_centers(k), config.ftile,
                                  Degrees(config.fov_deg), config.seed);
      ASSERT_EQ(layout.tile_blocks(), want.tile_blocks)
          << "video " << video.id << " segment " << k;
      ASSERT_EQ(layout.tile_areas().size(), want.tile_areas.size());
      for (std::size_t t = 0; t < want.tile_areas.size(); ++t) {
        ASSERT_EQ(bits(layout.tile_areas()[t]), bits(want.tile_areas[t]))
            << "video " << video.id << " segment " << k << " tile " << t;
      }
    }
  }
  EXPECT_GE(layouts, 8u * 60u);
}

}  // namespace
}  // namespace ps360::ptile
