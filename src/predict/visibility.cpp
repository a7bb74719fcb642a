#include "predict/visibility.h"

#include <algorithm>
#include <cmath>

#include "geometry/angles.h"
#include "util/check.h"

namespace ps360::predict {

namespace {

// Standard normal CDF.
double phi(double x) { return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))); }

// P(N(0, sigma^2) lands in [lo, hi]).
double interval_probability(double lo, double hi, double sigma) {
  if (hi <= lo) return 0.0;
  return std::clamp(phi(hi / sigma) - phi(lo / sigma), 0.0, 1.0);
}

}  // namespace

std::vector<double> tile_visibility(const geometry::TileGrid& grid,
                                    const geometry::EquirectPoint& predicted_center,
                                    util::Degrees fov_h, util::Degrees fov_v,
                                    util::DegPerSec switching_speed,
                                    util::Seconds horizon,
                                    const VisibilityConfig& config) {
  PS360_CHECK(fov_h.value() > 0.0 && fov_h.value() <= 360.0);
  PS360_CHECK(fov_v.value() > 0.0 && fov_v.value() <= 180.0);
  PS360_CHECK(switching_speed.value() >= 0.0);
  PS360_CHECK(horizon.value() >= 0.0);
  PS360_CHECK(config.base_sigma_deg > 0.0 && config.speed_sigma_factor >= 0.0);
  PS360_CHECK(config.max_sigma_deg >= config.base_sigma_deg);

  const double sigma_deg =
      std::min(config.base_sigma_deg + config.speed_sigma_factor *
                                           switching_speed.value() * horizon.value(),
               config.max_sigma_deg);

  // A tile's longitude extent depends on its column alone and its
  // colatitude extent on its row alone, so p_lon is evaluated once per
  // column and p_colat once per row; a tile's probability is their product.
  //
  // The viewport overlaps the tile iff its center falls inside the tile
  // dilated by half the FoV on each side. Longitude works in coordinates
  // centered on the predicted longitude (wrap-safe); a dilated width >= 360
  // means every longitude qualifies.
  std::vector<double> p_lon(grid.cols(), 1.0);
  for (std::size_t col = 0; col < grid.cols(); ++col) {
    const geometry::LonInterval lon = grid.tile_area({0, col}).lon;
    const double lon_width = std::min(lon.width + fov_h.value(), 360.0);
    if (lon_width >= 360.0) continue;
    const double tile_center_lon = lon.lo + lon.width / 2.0;
    const double offset =
        geometry::wrap_delta(geometry::Degrees(tile_center_lon), predicted_center.lon())
            .value();
    p_lon[col] = interval_probability(offset - lon_width / 2.0, offset + lon_width / 2.0,
                                      sigma_deg);
  }

  std::vector<double> visibility(grid.tile_count());
  for (std::size_t row = 0; row < grid.rows(); ++row) {
    // Overlap iff the center colat lands within fov_v/2 of the tile span;
    // no clamping here — a viewport clipped at a pole still overlaps any
    // tile whose dilated span contains the center.
    const geometry::EquirectRect tile = grid.tile_area({row, 0});
    const double y_lo = tile.y_lo - fov_v.value() / 2.0;
    const double y_hi = tile.y_hi + fov_v.value() / 2.0;
    const double p_colat = interval_probability(y_lo - predicted_center.y,
                                                y_hi - predicted_center.y, sigma_deg);
    for (std::size_t col = 0; col < grid.cols(); ++col)
      visibility[row * grid.cols() + col] = p_lon[col] * p_colat;
  }
  return visibility;
}

}  // namespace ps360::predict
