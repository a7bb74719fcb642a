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
};

class FtileLayout {
 public:
  // Build the layout for one segment from the training users' viewing
  // centers, counting each user's views with an `fov` x `fov` viewport and
  // seeding k-means from `seed` (the workload passes its WorkloadConfig
  // fov_deg and seed). Throws, naming the index, for a center with a
  // non-finite coordinate or a colatitude outside [0, 180].
  FtileLayout(const std::vector<geometry::EquirectPoint>& centers,
              const FtileLayoutConfig& config, geometry::Degrees fov, std::uint64_t seed);

  std::size_t tile_count() const { return tile_blocks_.size(); }

  // Area fraction of each tile (sums to 1 across tiles).
  const std::vector<double>& tile_areas() const { return tile_areas_; }

  // Blocks (indices into the block grid) belonging to each tile.
  const std::vector<std::vector<geometry::TileIndex>>& tile_blocks() const {
    return tile_blocks_;
  }

  // The blocks whose center a viewport holds. EquirectRect::contains is a
  // longitude test AND a colatitude test, so block (r, c) is in view exactly
  // when its column and its row are: the blocks in view are the listed rows
  // x the listed columns. Block centers depend on the block grid alone, so
  // one view serves every layout of the same block_rows x block_cols (the
  // Ftile planner takes one per plan for its whole horizon).
  struct BlocksInView {
    std::size_t block_rows = 0;
    std::size_t block_cols = 0;
    std::vector<std::size_t> rows;  // ascending
    std::vector<std::size_t> cols;  // ascending
  };
  BlocksInView blocks_in_view(const geometry::Viewport& viewport) const;

  // Tiles the client downloads at high quality for this viewport: a tile
  // qualifies when at least `min_block_fraction` of its own blocks fall in
  // the viewport (a large background tile merely grazed by the FoV corner is
  // not worth fetching at high quality).
  std::vector<std::size_t> tiles_overlapping(const geometry::Viewport& viewport,
                                             double min_block_fraction = 0.2) const;
  std::vector<std::size_t> tiles_overlapping(const BlocksInView& view,
                                             double min_block_fraction = 0.2) const;

  // The tiles tiles_overlapping() selects and the rest, each side as a tile
  // count and an area fraction summed in tile order (the order
  // EncodingModel::tiled_full_rate_bytes sums a tile list in).
  struct TileSplit {
    std::size_t selected_tiles = 0;
    double selected_area = 0.0;
    std::size_t other_tiles = 0;
    double other_area = 0.0;
  };
  TileSplit split(const BlocksInView& view, double min_block_fraction = 0.2) const;

  // Fraction of the viewport's blocks that the given tile set covers.
  double coverage(const geometry::Viewport& viewport,
                  const std::vector<std::size_t>& tile_ids) const;

 private:
  // How many of each tile's blocks are in view. Throws unless the view is
  // of this layout's block grid.
  std::vector<std::size_t> view_hits(const BlocksInView& view) const;
  // Whether tile t, with `hits` blocks in view, is one tiles_overlapping()
  // selects.
  bool selected(std::size_t t, std::size_t hits, double min_block_fraction) const;

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
