#include "ptile/ftile.h"

#include <algorithm>

#include "ptile/kmeans.h"
#include "util/check.h"
#include "util/rng.h"

namespace ps360::ptile {

using geometry::Degrees;
using geometry::EquirectPoint;
using geometry::EquirectRect;
using geometry::TileIndex;
using geometry::Viewport;

static_assert(FtileLayout::kTileCount >= 1 &&
              FtileLayout::kTileCount <= FtileLayout::kBlockRows * FtileLayout::kBlockCols);

FtileLayout::FtileLayout(const std::vector<EquirectPoint>& centers, Degrees fov,
                         std::uint64_t seed)
    : blocks_(kBlockRows, kBlockCols) {
  const std::size_t n_blocks = blocks_.tile_count();

  check_points(centers, "centers");

  col_lon_.reserve(blocks_.cols());
  for (std::size_t c = 0; c < blocks_.cols(); ++c) {
    const auto area = blocks_.tile_area(TileIndex{0, c});
    col_lon_.push_back(geometry::wrap360(Degrees(area.lon.lo + area.lon.width / 2.0)).value());
  }
  row_colat_.reserve(blocks_.rows());
  for (std::size_t r = 0; r < blocks_.rows(); ++r) {
    const auto area = blocks_.tile_area(TileIndex{r, 0});
    row_colat_.push_back((area.y_lo + area.y_hi) / 2.0);
  }

  // How many training views hold each block's center, counted one view at
  // a time by rows and columns (blocks_in_view).
  std::vector<std::size_t> views(n_blocks, 0);
  for (const auto& user_center : centers) {
    const BlocksInView view = blocks_in_view(Viewport(user_center, fov, fov));
    for (const std::size_t r : view.rows) {
      for (const std::size_t c : view.cols) ++views[r * blocks_.cols() + c];
    }
  }

  // Block centers and view-density weights. +1 keeps unwatched blocks
  // clusterable; view-dense blocks dominate centroid placement so the hot
  // region gets fine tiles.
  std::vector<EquirectPoint> block_centers;
  std::vector<double> weights;
  block_centers.reserve(n_blocks);
  weights.reserve(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    block_centers.push_back(
        EquirectPoint{col_lon_[b % blocks_.cols()], row_colat_[b / blocks_.cols()]});
    weights.push_back(1.0 + static_cast<double>(views[b]));
  }

  util::Rng rng(util::derive_seed(seed, 0xF71E5ULL));
  const KMeansResult clustering =
      kmeans(block_centers, weights, kTileCount, rng);

  tile_blocks_.assign(kTileCount, {});
  block_owner_.assign(n_blocks, 0);
  const double block_area = 1.0 / static_cast<double>(n_blocks);
  std::vector<double> areas(kTileCount, 0.0);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t tile = clustering.assignment[b];
    block_owner_[b] = tile;
    tile_blocks_[tile].push_back(
        TileIndex{b / blocks_.cols(), b % blocks_.cols()});
    areas[tile] += block_area;
  }

  // Drop tiles that received no blocks (k-means can empty a cluster).
  std::vector<std::vector<TileIndex>> kept_blocks;
  std::vector<double> kept_areas;
  std::vector<std::size_t> remap(kTileCount, 0);
  for (std::size_t t = 0; t < kTileCount; ++t) {
    if (tile_blocks_[t].empty()) continue;
    remap[t] = kept_blocks.size();
    kept_blocks.push_back(std::move(tile_blocks_[t]));
    kept_areas.push_back(areas[t]);
  }
  for (auto& owner : block_owner_) owner = remap[owner];
  tile_blocks_ = std::move(kept_blocks);
  tile_areas_ = std::move(kept_areas);
}

FtileLayout::BlocksInView FtileLayout::blocks_in_view(const Viewport& viewport) const {
  const EquirectRect area = viewport.area();
  BlocksInView view;
  view.rows.reserve(row_colat_.size());
  for (std::size_t r = 0; r < row_colat_.size(); ++r) {
    if (area.contains_colat(Degrees(row_colat_[r]))) view.rows.push_back(r);
  }
  view.cols.reserve(col_lon_.size());
  for (std::size_t c = 0; c < col_lon_.size(); ++c) {
    if (area.lon.contains(Degrees(col_lon_[c]))) view.cols.push_back(c);
  }
  return view;
}

std::vector<std::size_t> FtileLayout::view_hits(const BlocksInView& view) const {
  std::vector<std::size_t> hits(tile_blocks_.size(), 0);
  for (const std::size_t r : view.rows) {
    const std::size_t* owner = block_owner_.data() + r * blocks_.cols();
    for (const std::size_t c : view.cols) ++hits[owner[c]];
  }
  return hits;
}

bool FtileLayout::selected(std::size_t t, std::size_t hits,
                           double min_block_fraction) const {
  return hits != 0 && static_cast<double>(hits) /
                              static_cast<double>(tile_blocks_[t].size()) >=
                          min_block_fraction;
}

std::vector<std::size_t> FtileLayout::tiles_overlapping(
    const Viewport& viewport, double min_block_fraction) const {
  return tiles_overlapping(blocks_in_view(viewport), min_block_fraction);
}

std::vector<std::size_t> FtileLayout::tiles_overlapping(
    const BlocksInView& view, double min_block_fraction) const {
  PS360_CHECK(min_block_fraction >= 0.0 && min_block_fraction <= 1.0);
  const std::vector<std::size_t> hits = view_hits(view);
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < hits.size(); ++t) {
    if (selected(t, hits[t], min_block_fraction)) out.push_back(t);
  }
  return out;
}

FtileLayout::TileSplit FtileLayout::split(const BlocksInView& view,
                                          double min_block_fraction) const {
  PS360_CHECK(min_block_fraction >= 0.0 && min_block_fraction <= 1.0);
  const std::vector<std::size_t> hits = view_hits(view);
  TileSplit out;
  for (std::size_t t = 0; t < hits.size(); ++t) {
    if (selected(t, hits[t], min_block_fraction)) {
      ++out.selected_tiles;
      out.selected_area += tile_areas_[t];
    } else {
      ++out.other_tiles;
      out.other_area += tile_areas_[t];
    }
  }
  return out;
}

double FtileLayout::coverage(const Viewport& viewport,
                             const std::vector<std::size_t>& tile_ids) const {
  std::vector<bool> selected(tile_blocks_.size(), false);
  for (std::size_t t : tile_ids) {
    PS360_CHECK(t < tile_blocks_.size());
    selected[t] = true;
  }
  const BlocksInView view = blocks_in_view(viewport);
  const std::size_t in_view = view.rows.size() * view.cols.size();
  std::size_t covered = 0;
  for (const std::size_t r : view.rows) {
    const std::size_t* owner = block_owner_.data() + r * blocks_.cols();
    for (const std::size_t c : view.cols) covered += selected[owner[c]] ? 1 : 0;
  }
  if (in_view == 0) return 1.0;
  return static_cast<double>(covered) / static_cast<double>(in_view);
}

}  // namespace ps360::ptile
