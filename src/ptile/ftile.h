// The Ftile baseline layout (Section V-A, after ClusTile [12]).
//
// Each segment is first divided into 450 small blocks (15 rows x 30
// columns); the blocks are then clustered into ten tiles based on the
// training users' views: k-means over block centers weighted by view
// density, so blocks that many users watch end up in compact, view-aligned
// tiles. Each resulting tile is encoded independently (variable size, fixed
// count), which is cheaper than 32 fixed tiles but still pays ten per-tile
// overheads and still fragments the hot region.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/tile_grid.h"

namespace ps360::ptile {

struct FtileLayoutConfig {
  std::size_t block_rows = 15;
  std::size_t block_cols = 30;
  std::size_t tile_count = 10;
  std::uint64_t seed = 42;
  double fov_deg = 100.0;  // FoV used when counting views per block
};

class FtileLayout {
 public:
  // Build the layout for one segment from the training users' viewing
  // centers. Throws, naming the index, for a center with a non-finite
  // coordinate or a colatitude outside [0, 180].
  FtileLayout(const std::vector<geometry::EquirectPoint>& centers,
              const FtileLayoutConfig& config);

  std::size_t tile_count() const { return tile_blocks_.size(); }

  // Area fraction of each tile (sums to 1 across tiles).
  const std::vector<double>& tile_areas() const { return tile_areas_; }

  // Blocks (indices into the block grid) belonging to each tile.
  const std::vector<std::vector<geometry::TileIndex>>& tile_blocks() const {
    return tile_blocks_;
  }

  // Tiles the client downloads at high quality for this viewport: a tile
  // qualifies when at least `min_block_fraction` of its own blocks fall in
  // the viewport (a large background tile merely grazed by the FoV corner is
  // not worth fetching at high quality).
  std::vector<std::size_t> tiles_overlapping(const geometry::Viewport& viewport,
                                             double min_block_fraction = 0.2) const;

  // Fraction of the viewport's blocks that the given tile set covers.
  double coverage(const geometry::Viewport& viewport,
                  const std::vector<std::size_t>& tile_ids) const;

 private:
  geometry::TileGrid blocks_;
  // Each block column's center longitude and each block row's center
  // colatitude: a block center's longitude depends only on its column and
  // its colatitude only on its row.
  std::vector<double> col_lon_;
  std::vector<double> row_colat_;
  std::vector<std::vector<geometry::TileIndex>> tile_blocks_;
  std::vector<double> tile_areas_;
  // block (row-major) -> owning tile id
  std::vector<std::size_t> block_owner_;
};

}  // namespace ps360::ptile
