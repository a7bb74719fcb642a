#include "ptile/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/strings.h"

namespace ps360::ptile {

using geometry::EquirectPoint;
using geometry::wrapped_distance;

std::vector<std::vector<std::size_t>> KMeansResult::groups() const {
  std::vector<std::vector<std::size_t>> out(centroids.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) out[assignment[i]].push_back(i);
  return out;
}

namespace {

void check_point(const std::vector<EquirectPoint>& points, std::size_t i,
                 const char* name) {
  const EquirectPoint& p = points[i];
  PS360_CHECK_MSG(std::isfinite(p.x) && std::isfinite(p.y),
                  util::strfmt("%s[%zu] = (%g, %g) is not finite", name, i, p.x, p.y));
  PS360_CHECK_MSG(p.y >= 0.0 && p.y <= 180.0,
                  util::strfmt("%s[%zu] has colatitude %g, outside [0, 180]", name, i, p.y));
}

double checked_weight(const std::vector<double>& weights, std::size_t i) {
  if (weights.empty()) return 1.0;
  const double w = weights[i];
  PS360_CHECK_MSG(std::isfinite(w) && w >= 0.0,
                  util::strfmt("weights[%zu] = %g must be finite and >= 0", i, w));
  return w;
}

double weight_of(const std::vector<double>& weights, std::size_t i) {
  return weights.empty() ? 1.0 : weights[i];
}

// One point's terms of the weighted centroid sums: w cos x, w sin x, w y, w.
struct CentroidTerms {
  double wcos = 0.0;
  double wsin = 0.0;
  double wy = 0.0;
  double w = 0.0;
};

CentroidTerms centroid_terms(const EquirectPoint& p, double w) {
  const double rad = geometry::to_radians(geometry::Degrees(p.x)).value();
  return CentroidTerms{w * std::cos(rad), w * std::sin(rad), w * p.y, w};
}

// A cluster's running sums, added in member order; `first` is the first
// member, whose longitude an antipodal (zero-resultant) cluster keeps.
struct CentroidSums {
  double sx = 0.0;
  double sy = 0.0;
  double y_sum = 0.0;
  double w_sum = 0.0;
  std::size_t members = 0;
  std::size_t first = 0;

  void add(std::size_t i, const CentroidTerms& t) {
    if (members++ == 0) first = i;
    sx += t.wcos;
    sy += t.wsin;
    y_sum += t.wy;
    w_sum += t.w;
  }

  EquirectPoint mean(const std::vector<EquirectPoint>& points) const {
    PS360_CHECK_MSG(w_sum > 0.0, "centroid of zero-weight members");
    double x;
    if (std::fabs(sx) < 1e-12 && std::fabs(sy) < 1e-12) {
      x = points[first].x;  // antipodal degenerate case
    } else {
      x = geometry::wrap360(geometry::to_degrees(geometry::Radians(std::atan2(sy, sx))))
              .value();
    }
    return EquirectPoint{x, std::clamp(y_sum / w_sum, 0.0, 180.0)};
  }
};

// Lloyd's iterations from the given seeds. Each point's centroid terms are
// computed once; an iteration adds them into per-cluster sums in ascending
// point order, the additions centroid() makes for the cluster's members.
KMeansResult lloyd_iterate(const std::vector<EquirectPoint>& points,
                           const std::vector<double>& weights,
                           std::vector<EquirectPoint> centroids,
                           std::size_t max_iterations) {
  const std::size_t n = points.size();
  const std::size_t k = centroids.size();
  std::vector<CentroidTerms> terms(n);
  for (std::size_t i = 0; i < n; ++i) terms[i] = centroid_terms(points[i], weight_of(weights, i));
  std::vector<CentroidSums> sums(k);
  KMeansResult result;
  result.assignment.assign(n, 0);

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        // Strict <, so the first of equal distances wins.
        const double d = wrapped_distance(points[i], centroids[c]);
        const bool nearer = d < best;
        best = nearer ? d : best;
        best_c = nearer ? c : best_c;
      }
      if (result.assignment[i] != best_c) {
        result.assignment[i] = best_c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;

    // Recompute centroids; a cluster emptied, or left with members of zero
    // total weight, keeps its previous centroid.
    std::fill(sums.begin(), sums.end(), CentroidSums{});
    for (std::size_t i = 0; i < n; ++i) sums[result.assignment[i]].add(i, terms[i]);
    for (std::size_t c = 0; c < k; ++c) {
      if (sums[c].w_sum > 0.0) centroids[c] = sums[c].mean(points);
    }
  }

  result.centroids = std::move(centroids);
  result.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = wrapped_distance(points[i], result.centroids[result.assignment[i]]);
    result.inertia += weight_of(weights, i) * d * d;
  }
  return result;
}

}  // namespace

void check_points(const std::vector<EquirectPoint>& points, const char* name) {
  for (std::size_t i = 0; i < points.size(); ++i) check_point(points, i, name);
}

EquirectPoint centroid(const std::vector<EquirectPoint>& points,
                       const std::vector<std::size_t>& member_indices,
                       const std::vector<double>& weights) {
  PS360_CHECK(!member_indices.empty());
  PS360_CHECK(weights.empty() || weights.size() == points.size());
  CentroidSums sums;
  for (std::size_t idx : member_indices) {
    PS360_CHECK(idx < points.size());
    check_point(points, idx, "points");
    sums.add(idx, centroid_terms(points[idx], checked_weight(weights, idx)));
  }
  return sums.mean(points);
}

KMeansResult kmeans(const std::vector<EquirectPoint>& points,
                    const std::vector<double>& weights, std::size_t k,
                    util::Rng& rng, std::size_t max_iterations) {
  PS360_CHECK(k >= 1 && k <= points.size());
  PS360_CHECK_MSG(max_iterations >= 1, "kmeans needs max_iterations >= 1");
  PS360_CHECK(weights.empty() || weights.size() == points.size());
  check_points(points, "points");
  double w_total = 0.0;
  std::size_t positive = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double w = checked_weight(weights, i);
    w_total += w;
    if (w > 0.0) ++positive;
  }
  PS360_CHECK_MSG(positive >= k,
                  util::strfmt("kmeans needs at least k = %zu positive weights, got %zu", k,
                               positive));
  PS360_CHECK_MSG(std::isfinite(w_total), "kmeans weights must have a finite sum");

  // k-means++ seeding on weighted squared distances.
  std::vector<EquirectPoint> seeds;
  seeds.reserve(k);
  // First seed: weighted draw.
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
  // Each point's distance to its nearest seed so far, updated against the
  // newest seed only: min is exact, so this is the same value as a min over
  // every seed.
  std::vector<double> nearest(points.size(), std::numeric_limits<double>::infinity());
  std::vector<double> d2(points.size());
  while (seeds.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      nearest[i] = std::min(nearest[i], wrapped_distance(points[i], seeds.back()));
      d2[i] = weight_of(weights, i) * nearest[i] * nearest[i];
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
  PS360_CHECK(points.size() >= 2);
  PS360_CHECK_MSG(max_iterations >= 1, "kmeans_split2 needs max_iterations >= 1");
  check_points(points, "points");
  // Farthest pair as deterministic seeds (O(n^2); Algorithm 1 clusters are
  // small).
  std::size_t a = 0, b = 1;
  double best = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const double d = wrapped_distance(points[i], points[j]);
      if (d > best) {
        best = d;
        a = i;
        b = j;
      }
    }
  }
  return lloyd_iterate(points, {}, {points[a], points[b]}, max_iterations);
}

}  // namespace ps360::ptile
