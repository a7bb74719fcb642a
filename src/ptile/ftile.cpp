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

namespace {

// Which blocks have their center inside `area`, from each block column's
// center longitude and each block row's center colatitude.
// EquirectRect::contains is a longitude test AND a colatitude test, so
// block (r, c) is in view exactly when in_col[c] && in_row[r]: cols + rows
// containment tests instead of cols x rows.
struct BlocksInView {
  std::vector<char> in_col;
  std::vector<char> in_row;
};

BlocksInView blocks_in_view(const std::vector<double>& col_lon,
                            const std::vector<double>& row_colat,
                            const EquirectRect& area) {
  BlocksInView view;
  view.in_col.reserve(col_lon.size());
  for (const double lon : col_lon) view.in_col.push_back(area.lon.contains(Degrees(lon)));
  view.in_row.reserve(row_colat.size());
  for (const double colat : row_colat)
    view.in_row.push_back(area.contains_colat(Degrees(colat)));
  return view;
}

}  // namespace

FtileLayout::FtileLayout(const std::vector<EquirectPoint>& centers,
                         const FtileLayoutConfig& config)
    : blocks_(config.block_rows, config.block_cols) {
  PS360_CHECK(config.tile_count >= 1);
  const std::size_t n_blocks = blocks_.tile_count();
  PS360_CHECK(config.tile_count <= n_blocks);

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
    const BlocksInView view = blocks_in_view(
        col_lon_, row_colat_,
        Viewport(user_center, Degrees(config.fov_deg), Degrees(config.fov_deg)).area());
    for (std::size_t r = 0; r < blocks_.rows(); ++r) {
      if (!view.in_row[r]) continue;
      for (std::size_t c = 0; c < blocks_.cols(); ++c) {
        if (view.in_col[c]) ++views[r * blocks_.cols() + c];
      }
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

  util::Rng rng(util::derive_seed(config.seed, 0xF71E5ULL));
  const KMeansResult clustering =
      kmeans(block_centers, weights, config.tile_count, rng);

  tile_blocks_.assign(config.tile_count, {});
  block_owner_.assign(n_blocks, 0);
  const double block_area = 1.0 / static_cast<double>(n_blocks);
  std::vector<double> areas(config.tile_count, 0.0);
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
  std::vector<std::size_t> remap(config.tile_count, 0);
  for (std::size_t t = 0; t < config.tile_count; ++t) {
    if (tile_blocks_[t].empty()) continue;
    remap[t] = kept_blocks.size();
    kept_blocks.push_back(std::move(tile_blocks_[t]));
    kept_areas.push_back(areas[t]);
  }
  for (auto& owner : block_owner_) owner = remap[owner];
  tile_blocks_ = std::move(kept_blocks);
  tile_areas_ = std::move(kept_areas);
}

std::vector<std::size_t> FtileLayout::tiles_overlapping(
    const Viewport& viewport, double min_block_fraction) const {
  PS360_CHECK(min_block_fraction >= 0.0 && min_block_fraction <= 1.0);
  std::vector<std::size_t> hits(tile_blocks_.size(), 0);
  const BlocksInView view = blocks_in_view(col_lon_, row_colat_, viewport.area());
  for (std::size_t r = 0; r < blocks_.rows(); ++r) {
    if (!view.in_row[r]) continue;
    for (std::size_t c = 0; c < blocks_.cols(); ++c) {
      if (view.in_col[c]) ++hits[block_owner_[r * blocks_.cols() + c]];
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < hits.size(); ++t) {
    if (hits[t] == 0) continue;
    const double fraction =
        static_cast<double>(hits[t]) / static_cast<double>(tile_blocks_[t].size());
    if (fraction >= min_block_fraction) out.push_back(t);
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
  const BlocksInView view = blocks_in_view(col_lon_, row_colat_, viewport.area());
  std::size_t in_view = 0, covered = 0;
  for (std::size_t r = 0; r < blocks_.rows(); ++r) {
    if (!view.in_row[r]) continue;
    for (std::size_t c = 0; c < blocks_.cols(); ++c) {
      if (!view.in_col[c]) continue;
      ++in_view;
      if (selected[block_owner_[r * blocks_.cols() + c]]) ++covered;
    }
  }
  if (in_view == 0) return 1.0;
  return static_cast<double>(covered) / static_cast<double>(in_view);
}

}  // namespace ps360::ptile
