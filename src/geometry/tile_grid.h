// Tile grid over the equirectangular frame.
//
// The paper's conventional scheme (Ctile) divides each segment into a
// 4 x 8 grid (rows x cols) of fixed tiles; the Ftile baseline starts from a
// 15 x 30 grid of small blocks. TileGrid maps between viewports/rects and
// tile index sets, honouring the longitude wraparound.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/viewport.h"

namespace ps360::geometry {

// The paper's conventional tiling: 4 rows x 8 columns of 45° x 45° tiles.
// Ptiles are merged from its tiles, every scheme plans over it, and the
// Ghosh allocators' size noise is drawn per tile of it.
inline constexpr std::size_t kPaperGridRows = 4;
inline constexpr std::size_t kPaperGridCols = 8;

// Identifies one tile: row in [0, rows), col in [0, cols).
struct TileIndex {
  std::size_t row = 0;
  std::size_t col = 0;

  friend bool operator==(const TileIndex&, const TileIndex&) = default;
};

// A rectangular block of tiles; columns may wrap around the grid edge.
// col_count <= cols of the owning grid.
struct TileRect {
  std::size_t row_lo = 0;     // first row
  std::size_t row_count = 0;  // number of rows
  std::size_t col_lo = 0;     // first column (wrap start)
  std::size_t col_count = 0;  // number of columns, wrapping past the edge

  std::size_t tile_count() const { return row_count * col_count; }
};

class TileGrid {
 public:
  // rows >= 1, cols >= 1; the grid covers the full 360 x 180 frame.
  TileGrid(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t tile_count() const { return rows_ * cols_; }

  double tile_width_deg() const { return 360.0 / static_cast<double>(cols_); }
  double tile_height_deg() const { return 180.0 / static_cast<double>(rows_); }

  // The equirect rect of one tile.
  EquirectRect tile_area(TileIndex t) const;

  // The tile containing a point.
  TileIndex tile_at(const EquirectPoint& p) const;

  // Smallest tile rect covering the given equirect rect.
  TileRect covering_rect(const EquirectRect& area) const;

  // Tile rect covering the rect but dropping boundary rows/columns whose
  // tiles are overlapped by less than `min_tile_overlap` of their own area.
  // This is how tile-based clients pick "the FoV tiles": a 100°x100° FoV
  // grazing a row by a few degrees does not pull in that whole row (the
  // paper's nine FoV tiles). min_tile_overlap = 0 reduces to covering_rect.
  TileRect covering_rect(const EquirectRect& area, double min_tile_overlap) const;

  // The tiles of a tile rect, row-major, columns unwrapped modulo cols.
  std::vector<TileIndex> tiles_in(const TileRect& rect) const;

  // Convenience: tiles covering a viewport.
  std::vector<TileIndex> tiles_covering(const Viewport& vp) const;

  // Equirect area covered by a tile rect.
  EquirectRect rect_area(const TileRect& rect) const;

  // Snap an arbitrary equirect rect outward to tile boundaries.
  EquirectRect snapped_area(const EquirectRect& area) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
};

}  // namespace ps360::geometry
