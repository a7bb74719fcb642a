#include "ptile/heatmap.h"

#include <algorithm>

#include "util/check.h"

namespace ps360::ptile {

using geometry::EquirectPoint;

ViewHeatmap::ViewHeatmap(std::size_t rows, std::size_t cols)
    : grid_(rows, cols), counts_(rows * cols, 0.0) {}

EquirectPoint ViewHeatmap::cell_center(std::size_t row, std::size_t col) const {
  const auto area = grid_.tile_area(geometry::TileIndex{row, col});
  return EquirectPoint{
      geometry::wrap360(geometry::Degrees(area.lon.lo + area.lon.width / 2.0))
          .value(),
                       (area.y_lo + area.y_hi) / 2.0};
}

void ViewHeatmap::add_viewport(const geometry::Viewport& viewport) {
  const auto area = viewport.area();
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t c = 0; c < cols(); ++c) {
      if (area.contains(cell_center(r, c))) counts_[r * cols() + c] += 1.0;
    }
  }
}

void ViewHeatmap::add_center(const EquirectPoint& center) {
  const auto idx = grid_.tile_at(center);
  counts_[idx.row * cols() + idx.col] += 1.0;
}

double ViewHeatmap::at(std::size_t row, std::size_t col) const {
  PS360_CHECK(row < rows() && col < cols());
  return counts_[row * cols() + col];
}

double ViewHeatmap::max_value() const {
  return *std::max_element(counts_.begin(), counts_.end());
}

double ViewHeatmap::total() const {
  double sum = 0.0;
  for (double v : counts_) sum += v;
  return sum;
}

std::string ViewHeatmap::render(const std::vector<Ptile>& overlays) const {
  static const char kRamp[] = " .:-=+*#%@";
  const double max = std::max(max_value(), 1e-12);
  std::string out;
  out.reserve((cols() + 1) * rows());
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t c = 0; c < cols(); ++c) {
      const EquirectPoint center = cell_center(r, c);
      char glyph;
      const double level = counts_[r * cols() + c] / max;
      const std::size_t ramp_index = std::min<std::size_t>(
          static_cast<std::size_t>(level * 9.999), sizeof(kRamp) - 2);
      glyph = kRamp[ramp_index];
      // Overlay Ptile boundaries: mark cells inside a Ptile but whose left/
      // right neighbour is outside.
      for (const auto& ptile : overlays) {
        const bool inside = ptile.area.contains(center);
        if (!inside) continue;
        const EquirectPoint left = cell_center(r, (c + cols() - 1) % cols());
        const EquirectPoint right = cell_center(r, (c + 1) % cols());
        if (!ptile.area.contains(left)) glyph = '[';
        if (!ptile.area.contains(right)) glyph = ']';
      }
      out.push_back(glyph);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace ps360::ptile
