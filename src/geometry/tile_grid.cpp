#include "geometry/tile_grid.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps360::geometry {

TileGrid::TileGrid(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {
  PS360_CHECK(rows >= 1 && cols >= 1);
}

EquirectRect TileGrid::tile_area(TileIndex t) const {
  PS360_CHECK(t.row < rows_ && t.col < cols_);
  const double w = tile_width_deg();
  const double h = tile_height_deg();
  return EquirectRect::make(
      LonInterval::make(Degrees(static_cast<double>(t.col) * w), Degrees(w)),
      Degrees(static_cast<double>(t.row) * h),
      Degrees(static_cast<double>(t.row + 1) * h));
}

TileIndex TileGrid::tile_at(const EquirectPoint& p) const {
  const double w = tile_width_deg();
  const double h = tile_height_deg();
  std::size_t col = static_cast<std::size_t>(wrap360(Degrees(p.x)).value() / w);
  std::size_t row = static_cast<std::size_t>(p.y / h);
  if (col >= cols_) col = cols_ - 1;
  if (row >= rows_) row = rows_ - 1;  // p.y == 180 lands in the last row
  return TileIndex{row, col};
}

TileRect TileGrid::covering_rect(const EquirectRect& area) const {
  const double w = tile_width_deg();
  const double h = tile_height_deg();

  // Rows: plain interval; the half-open upper bound avoids including an
  // extra row when the rect ends exactly on a boundary.
  const std::size_t row_lo =
      std::min(rows_ - 1, static_cast<std::size_t>(area.y_lo / h));
  const double y_hi_inner = std::max(area.y_lo, area.y_hi - 1e-9);
  const std::size_t row_hi =
      std::min(rows_ - 1, static_cast<std::size_t>(y_hi_inner / h));

  TileRect rect;
  rect.row_lo = row_lo;
  rect.row_count = row_hi - row_lo + 1;

  if (area.lon.width >= 360.0 - 1e-9) {
    rect.col_lo = 0;
    rect.col_count = cols_;
    return rect;
  }

  const std::size_t col_lo =
      static_cast<std::size_t>(wrap360(Degrees(area.lon.lo)).value() / w) % cols_;
  const double hi_lon = area.lon.lo + std::max(0.0, area.lon.width - 1e-9);
  const std::size_t col_hi =
      static_cast<std::size_t>(wrap360(Degrees(hi_lon)).value() / w) % cols_;
  rect.col_lo = col_lo;
  rect.col_count = (col_hi + cols_ - col_lo) % cols_ + 1;
  // A rect wider than (cols-1) tiles that wraps back into its own first
  // column is the full circle.
  const double spanned = static_cast<double>(rect.col_count) * w;
  if (spanned < area.lon.width) rect.col_count = cols_;
  return rect;
}

TileRect TileGrid::covering_rect(const EquirectRect& area,
                                 double min_tile_overlap) const {
  PS360_CHECK(min_tile_overlap >= 0.0 && min_tile_overlap < 1.0);
  TileRect rect = covering_rect(area);
  if (min_tile_overlap <= 0.0) return rect;

  const double w = tile_width_deg();
  const double h = tile_height_deg();

  // Trim rows: fraction of the boundary row's height the area overlaps.
  auto row_overlap = [&](std::size_t row) {
    const double lo = static_cast<double>(row) * h;
    const double hi = lo + h;
    return std::max(0.0, std::min(area.y_hi, hi) - std::max(area.y_lo, lo)) / h;
  };
  while (rect.row_count > 1 && row_overlap(rect.row_lo) < min_tile_overlap) {
    ++rect.row_lo;
    --rect.row_count;
  }
  while (rect.row_count > 1 &&
         row_overlap(rect.row_lo + rect.row_count - 1) < min_tile_overlap) {
    --rect.row_count;
  }

  // Trim columns (wrap-aware): overlap of the area's lon interval with one
  // column's interval.
  auto col_overlap = [&](std::size_t col) {
    if (area.lon.width >= 360.0 - 1e-9) return 1.0;
    const double col_lo = static_cast<double>(col % cols_) * w;
    // Shift the column start into the area's frame.
    const double s = wrap360(Degrees(col_lo - area.lon.lo)).value();
    const double piece1 = std::max(0.0, std::min(area.lon.width, s + w) - s);
    double piece2 = 0.0;
    if (s + w > 360.0) piece2 = std::max(0.0, std::min(area.lon.width, s + w - 360.0));
    return std::min(piece1 + piece2, w) / w;
  };
  while (rect.col_count > 1 && col_overlap(rect.col_lo) < min_tile_overlap) {
    rect.col_lo = (rect.col_lo + 1) % cols_;
    --rect.col_count;
  }
  while (rect.col_count > 1 &&
         col_overlap(rect.col_lo + rect.col_count - 1) < min_tile_overlap) {
    --rect.col_count;
  }
  return rect;
}

std::vector<TileIndex> TileGrid::tiles_in(const TileRect& rect) const {
  PS360_CHECK(rect.row_lo + rect.row_count <= rows_);
  PS360_CHECK(rect.col_count <= cols_);
  std::vector<TileIndex> tiles;
  tiles.reserve(rect.tile_count());
  for (std::size_t r = 0; r < rect.row_count; ++r) {
    for (std::size_t c = 0; c < rect.col_count; ++c) {
      tiles.push_back(TileIndex{rect.row_lo + r, (rect.col_lo + c) % cols_});
    }
  }
  return tiles;
}

EquirectRect TileGrid::rect_area(const TileRect& rect) const {
  PS360_CHECK(rect.row_lo + rect.row_count <= rows_);
  PS360_CHECK(rect.col_count <= cols_ && rect.col_count >= 1 && rect.row_count >= 1);
  const double w = tile_width_deg();
  const double h = tile_height_deg();
  const double width = static_cast<double>(rect.col_count) * w;
  return EquirectRect::make(
      LonInterval::make(Degrees(static_cast<double>(rect.col_lo) * w),
                        Degrees(std::min(width, 360.0))),
      Degrees(static_cast<double>(rect.row_lo) * h),
      Degrees(static_cast<double>(rect.row_lo + rect.row_count) * h));
}

}  // namespace ps360::geometry
