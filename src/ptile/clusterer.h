// Algorithm 1 of the paper: clustering users' viewing centers.
//
// Non-parametric density-style clustering with a diameter cap:
//  1. Precompute each node's δ-neighbourhood N_u.
//  2. Repeatedly seed a cluster at the unclustered node with the most
//     neighbours and grow it BFS-style through δ-neighbour links.
//  3. If the grown cluster's diameter (max pairwise distance) exceeds σ,
//     split it with 2-means.
//
// δ controls linkage (too small: users of one interest split; too large:
// distinct interests merge); σ caps the Ptile footprint (Fig. 6). The
// evaluation sets σ to one conventional-tile width and δ = σ/4.
//
// Two faithful-implementation notes:
//  * The paper's pseudocode expands through any neighbour "not already in
//    U_j"; taken literally that could steal nodes clustered in earlier
//    rounds. We implement the evident intent: only still-unclustered nodes
//    join a cluster.
//  * The paper splits an oversized cluster once; a half can still violate σ.
//    We re-check and split recursively so the σ bound is a real invariant.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/viewport.h"

namespace ps360::ptile {

struct ClustererConfig {
  double delta = 45.0 / 4.0;  // neighbour threshold δ (degrees); σ/4 default
  double sigma = 45.0;        // diameter cap σ (degrees); one tile width
};

class ViewClusterer {
 public:
  explicit ViewClusterer(ClustererConfig config = {});

  const ClustererConfig& config() const { return config_; }

  // Cluster the viewing centers; returns disjoint index groups covering all
  // points (singletons included — the Ptile builder applies the minimum
  // user-count rule afterwards).
  std::vector<std::vector<std::size_t>> cluster(
      const std::vector<geometry::EquirectPoint>& points) const;

  // Max pairwise wrapped distance within a group.
  static double diameter(const std::vector<geometry::EquirectPoint>& points,
                         const std::vector<std::size_t>& group);

 private:
  ClustererConfig config_;
};

}  // namespace ps360::ptile
