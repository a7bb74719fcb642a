// Per-tile viewport-visibility probabilities for robust tile allocation.
//
// The ridge predictor (viewport_predictor.h) returns a point estimate of the
// viewing center at playback time; robust allocators (GhoshRobust,
// arXiv:1812.00816 §IV) want the *distribution* of that center so they can
// weight every candidate tile by the probability the viewport actually
// touches it. We model the prediction error as an independent Gaussian in
// longitude and colatitude whose spread grows with switching speed times
// lookahead horizon — the empirical shape of head-motion prediction error —
// and integrate it in closed form (erf) over each tile's FoV-dilated extent.
// The two axes are independent and a tile's longitude extent is its
// column's, its colatitude extent its row's, so each is integrated once per
// column or row and a tile's probability is their product.
// Deterministic: a pure function of its arguments, no sampling.
#pragma once

#include <vector>

#include "geometry/tile_grid.h"
#include "util/units.h"

namespace ps360::predict {

struct VisibilityConfig {
  // Prediction-error spread: sigma = base + factor * speed * horizon,
  // clamped to max (degrees; raw doubles per the units.h member convention).
  double base_sigma_deg = 10.0;
  double speed_sigma_factor = 0.5;  // sigma degrees per (deg/s * s)
  double max_sigma_deg = 90.0;
};

// Probability, per tile of `grid` (row-major), that a viewport with the
// given FoV centered at the (Gaussian-distributed) future viewing center
// overlaps the tile. predicted_center is the point prediction for playback
// time; switching_speed and horizon set the error spread. Each value is in
// [0, 1]; values are NOT normalized across tiles (they are per-tile overlap
// probabilities, not a distribution over tiles).
std::vector<double> tile_visibility(const geometry::TileGrid& grid,
                                    const geometry::EquirectPoint& predicted_center,
                                    util::Degrees fov_h, util::Degrees fov_v,
                                    util::DegPerSec switching_speed,
                                    util::Seconds horizon,
                                    const VisibilityConfig& config = {});

}  // namespace ps360::predict
