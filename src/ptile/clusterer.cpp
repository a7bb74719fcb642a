#include "ptile/clusterer.h"

#include <deque>

#include "ptile/kmeans.h"
#include "util/check.h"

namespace ps360::ptile {

using geometry::EquirectPoint;

ViewClusterer::ViewClusterer(ClustererConfig config) : config_(config) {
  PS360_CHECK(config_.delta > 0.0);
  PS360_CHECK(config_.sigma > 0.0);
  PS360_CHECK_MSG(config_.delta <= config_.sigma,
                  "neighbour threshold delta should not exceed the diameter cap sigma");
}

double ViewClusterer::diameter(const std::vector<EquirectPoint>& points,
                               const std::vector<std::size_t>& group) {
  double max_dist = 0.0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (std::size_t j = i + 1; j < group.size(); ++j) {
      max_dist = std::max(max_dist,
                          geometry::wrapped_distance(points[group[i]], points[group[j]]));
    }
  }
  return max_dist;
}

std::vector<std::vector<std::size_t>> ViewClusterer::cluster(
    const std::vector<EquirectPoint>& points) const {
  const std::size_t n = points.size();
  std::vector<std::vector<std::size_t>> clusters;
  if (n == 0) return clusters;

  // Line 1: N_u for every node.
  std::vector<std::vector<std::size_t>> neighbours(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (geometry::wrapped_distance(points[i], points[j]) <= config_.delta) {
        neighbours[i].push_back(j);
        neighbours[j].push_back(i);
      }
    }
  }

  std::vector<bool> clustered(n, false);
  std::size_t remaining = n;

  // Recursive σ-enforcement: each half is re-checked and split again.
  auto split_until_small = [&](auto&& self, std::vector<std::size_t> group)
      -> std::vector<std::vector<std::size_t>> {
    if (group.size() <= 1 || diameter(points, group) <= config_.sigma)
      return {std::move(group)};
    std::vector<EquirectPoint> member_points;
    member_points.reserve(group.size());
    for (std::size_t idx : group) member_points.push_back(points[idx]);
    const KMeansResult split = kmeans_split2(member_points);
    std::vector<std::size_t> lo, hi;
    for (std::size_t i = 0; i < group.size(); ++i) {
      (split.assignment[i] == 0 ? lo : hi).push_back(group[i]);
    }
    if (lo.empty() || hi.empty()) return {std::move(group)};  // cannot split further
    auto result = self(self, std::move(lo));
    auto more = self(self, std::move(hi));
    result.insert(result.end(), std::make_move_iterator(more.begin()),
                  std::make_move_iterator(more.end()));
    return result;
  };

  while (remaining > 0) {
    // Line 14: seed = unclustered node with the most (unclustered)
    // neighbours.
    std::size_t seed = n;
    std::size_t best_degree = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (clustered[i]) continue;
      std::size_t degree = 0;
      for (std::size_t nb : neighbours[i])
        if (!clustered[nb]) ++degree;
      if (seed == n || degree > best_degree) {
        seed = i;
        best_degree = degree;
      }
    }
    PS360_ASSERT(seed < n);

    // Lines 16-28: BFS expansion through δ-links.
    std::vector<std::size_t> group;
    std::deque<std::size_t> queue;
    clustered[seed] = true;
    --remaining;
    group.push_back(seed);
    queue.push_back(seed);
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (std::size_t nb : neighbours[u]) {
        if (clustered[nb]) continue;
        clustered[nb] = true;
        --remaining;
        group.push_back(nb);
        queue.push_back(nb);
      }
    }

    // Lines 4-9: σ check and 2-means split.
    for (auto& piece : split_until_small(split_until_small, std::move(group)))
      clusters.push_back(std::move(piece));
  }

  return clusters;
}

}  // namespace ps360::ptile
