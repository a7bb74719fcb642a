// k-means clustering on the equirectangular plane (longitude wraps).
//
// Two entry points:
//  * kmeans()        — general weighted k-means with k-means++ seeding, used
//                      to build the Ftile baseline layout (cluster 450
//                      blocks into 10 tiles by view density).
//  * kmeans_split2() — deterministic 2-means (seeded with the farthest pair)
//                      used by Algorithm 1 to split an oversized cluster.
//
// Centroids use the circular mean on x and the plain mean on y; distances
// are geometry::wrapped_distance. Every entry point rejects a point with a
// non-finite coordinate or a colatitude outside [0, 180], and a negative or
// non-finite weight, naming its index.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/viewport.h"
#include "util/rng.h"

namespace ps360::ptile {

struct KMeansResult {
  std::vector<std::size_t> assignment;            // point index -> cluster id
  std::vector<geometry::EquirectPoint> centroids;  // cluster id -> centroid
  double inertia = 0.0;  // weighted sum of squared wrapped distances

  // Indices of the points in each cluster.
  std::vector<std::vector<std::size_t>> groups() const;
};

// Weighted k-means. `weights` may be empty (all ones) or match points'
// size with finite non-negative entries, at least k of them strictly
// positive. Requires 1 <= k <= #points and max_iterations >= 1. A cluster
// whose members all weigh zero keeps its seed or previous centroid.
KMeansResult kmeans(const std::vector<geometry::EquirectPoint>& points,
                    const std::vector<double>& weights, std::size_t k,
                    util::Rng& rng, std::size_t max_iterations = 100);

// Deterministic 2-means seeded with the two mutually farthest points.
// Requires at least 2 points and max_iterations >= 1.
KMeansResult kmeans_split2(const std::vector<geometry::EquirectPoint>& points,
                           std::size_t max_iterations = 100);

// Weighted centroid of a point set (circular mean on x).
geometry::EquirectPoint centroid(const std::vector<geometry::EquirectPoint>& points,
                                 const std::vector<std::size_t>& member_indices,
                                 const std::vector<double>& weights);

// Throws std::invalid_argument naming `name`[i] for the first point with a
// non-finite coordinate or a colatitude outside [0, 180].
void check_points(const std::vector<geometry::EquirectPoint>& points, const char* name);

}  // namespace ps360::ptile
