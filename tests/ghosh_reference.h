// The Ghosh allocators' pieces as they were before each term was computed
// once, kept as test references: predict::tile_visibility evaluated tile by
// tile, and lp_allocate as a greedy over nested per-tile ladders that
// re-prices every open upgrade on each rescan. predict_test,
// tournament_test and sim_test pin the library's versions to these bit for
// bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "geometry/angles.h"
#include "geometry/tile_grid.h"
#include "predict/visibility.h"
#include "sim/competitors.h"
#include "util/units.h"

namespace ps360::reference {

// predict::tile_visibility, one tile at a time: each tile's p_lon and
// p_colat from its own rect.
inline std::vector<double> tile_visibility(const geometry::TileGrid& grid,
                                           const geometry::EquirectPoint& predicted_center,
                                           util::Degrees fov_h, util::Degrees fov_v,
                                           util::DegPerSec switching_speed,
                                           util::Seconds horizon,
                                           const predict::VisibilityConfig& config = {}) {
  const auto phi = [](double x) { return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))); };
  const auto interval_probability = [&](double lo, double hi, double sigma) {
    if (hi <= lo) return 0.0;
    return std::clamp(phi(hi / sigma) - phi(lo / sigma), 0.0, 1.0);
  };
  const double sigma_deg =
      std::min(config.base_sigma_deg + config.speed_sigma_factor *
                                           switching_speed.value() * horizon.value(),
               config.max_sigma_deg);

  std::vector<double> visibility;
  visibility.reserve(grid.tile_count());
  for (std::size_t row = 0; row < grid.rows(); ++row) {
    for (std::size_t col = 0; col < grid.cols(); ++col) {
      const geometry::EquirectRect tile = grid.tile_area({row, col});
      const double lon_width = std::min(tile.lon.width + fov_h.value(), 360.0);
      double p_lon = 1.0;
      if (lon_width < 360.0) {
        const double tile_center_lon = tile.lon.lo + tile.lon.width / 2.0;
        const double offset =
            geometry::wrap_delta(geometry::Degrees(tile_center_lon),
                                 predicted_center.lon())
                .value();
        p_lon = interval_probability(offset - lon_width / 2.0,
                                     offset + lon_width / 2.0, sigma_deg);
      }
      const double y_lo = tile.y_lo - fov_v.value() / 2.0;
      const double y_hi = tile.y_hi + fov_v.value() / 2.0;
      const double p_colat = interval_probability(y_lo - predicted_center.y,
                                                  y_hi - predicted_center.y, sigma_deg);
      visibility.push_back(p_lon * p_colat);
    }
  }
  return visibility;
}

// lp_allocate over nested per-tile ladders, re-pricing every open upgrade
// on each rescan.
inline sim::LpAllocation lp_allocate(const std::vector<double>& weights,
                                     const std::vector<std::vector<double>>& tile_bytes,
                                     const std::vector<std::vector<double>>& tile_utility,
                                     util::Bytes budget) {
  const std::size_t n = weights.size();
  sim::LpAllocation out;
  out.level.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out.spent += tile_bytes[i][0];
    out.utility += weights[i] * tile_utility[i][0];
  }
  out.feasible = out.spent <= budget.value();
  if (!out.feasible) return out;

  for (;;) {
    std::size_t best_tile = n;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto l = static_cast<std::size_t>(out.level[i]);
      if (l + 1 >= tile_bytes[i].size()) continue;
      const double cost = tile_bytes[i][l + 1] - tile_bytes[i][l];
      const double gain = weights[i] * (tile_utility[i][l + 1] - tile_utility[i][l]);
      if (gain <= 0.0) continue;
      if (out.spent + std::max(cost, 0.0) > budget.value()) continue;
      const double ratio = cost <= 0.0 ? std::numeric_limits<double>::infinity()
                                       : gain / cost;
      if (best_tile == n || ratio > best_ratio) {
        best_tile = i;
        best_ratio = ratio;
      }
    }
    if (best_tile == n) break;
    const auto l = static_cast<std::size_t>(out.level[best_tile]);
    out.spent += tile_bytes[best_tile][l + 1] - tile_bytes[best_tile][l];
    out.utility +=
        weights[best_tile] * (tile_utility[best_tile][l + 1] - tile_utility[best_tile][l]);
    out.level[best_tile] = static_cast<int>(l + 1);
  }
  return out;
}

}  // namespace ps360::reference
