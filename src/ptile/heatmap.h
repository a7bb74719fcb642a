// View-popularity heatmaps: how many users watch each cell of the
// equirectangular frame. This is the quantity behind every construction in
// Section IV-A — Ptiles sit on the hot region, Ftile's k-means follows the
// density, and the Fig. 1 / Fig. 6 illustrations are heatmaps with boxes
// drawn on top. The ASCII renderer makes those figures reproducible in a
// terminal (examples/ptile_construction, bench_fig6_ptile_split).
#pragma once

#include <string>
#include <vector>

#include "geometry/tile_grid.h"
#include "ptile/ptile.h"

namespace ps360::ptile {

class ViewHeatmap {
 public:
  // Cell grid resolution (rows x cols over the full frame).
  ViewHeatmap(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return grid_.rows(); }
  std::size_t cols() const { return grid_.cols(); }

  // Count one viewer: every cell whose center lies in the viewport gains 1.
  void add_viewport(const geometry::Viewport& viewport);

  // Count one viewing center only (a single cell).
  void add_center(const geometry::EquirectPoint& center);

  double at(std::size_t row, std::size_t col) const;
  double max_value() const;
  double total() const;

  // Render as ASCII art (top row = colatitude 0): intensity ramp
  // " .:-=+*#%@", optionally overlaying the outlines of the given Ptiles
  // with '[' / ']' markers on their boundary cells.
  std::string render(const std::vector<Ptile>& overlays = {}) const;

 private:
  geometry::EquirectPoint cell_center(std::size_t row, std::size_t col) const;

  geometry::TileGrid grid_;
  std::vector<double> counts_;  // row-major
};

}  // namespace ps360::ptile
