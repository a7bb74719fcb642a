#include "ptile/ptile.h"

#include <algorithm>

#include "util/check.h"

namespace ps360::ptile {

using geometry::EquirectPoint;
using geometry::EquirectRect;
using geometry::Viewport;

const Ptile* SegmentPtiles::covering(const Viewport& viewport,
                                     double min_coverage) const {
  for (const auto& p : ptiles) {
    if (p.area.coverage_of(viewport.area()) >= min_coverage) return &p;
  }
  return nullptr;
}

PtileBuilder::PtileBuilder(geometry::Degrees fov, PtileBuildConfig config)
    : fov_(fov), config_(config), grid_(config.grid_rows, config.grid_cols) {
  PS360_CHECK(config_.min_users >= 1);
  PS360_CHECK_MSG(fov_.value() > 0.0 && fov_.value() <= 180.0,
                  "PtileBuilder's fov must be in (0, 180] degrees");
  PS360_CHECK_MSG(config_.tile_overlap_threshold >= 0.0 && config_.tile_overlap_threshold < 1.0,
                  "tile_overlap_threshold must be in [0, 1)");
}

SegmentPtiles PtileBuilder::build(const std::vector<EquirectPoint>& centers) const {
  const ViewClusterer clusterer(config_.clustering);
  const auto groups = clusterer.cluster(centers);

  SegmentPtiles out;
  std::vector<bool> covered(centers.size(), false);

  for (const auto& group : groups) {
    if (group.size() < config_.min_users) continue;
    // Footprint: union of the member users' FoV viewing areas, snapped
    // outward to conventional-tile boundaries ("encoding the conventional
    // tiles that cover the viewing areas of users in this cluster").
    EquirectRect footprint = Viewport(centers[group.front()], fov_, fov_).area();
    for (std::size_t i = 1; i < group.size(); ++i)
      footprint = footprint.united(Viewport(centers[group[i]], fov_, fov_).area());
    Ptile ptile;
    ptile.rect = grid_.covering_rect(footprint, config_.tile_overlap_threshold);
    ptile.area = grid_.rect_area(ptile.rect);
    ptile.users = group;
    for (std::size_t u : group) covered[u] = true;
    out.ptiles.push_back(std::move(ptile));
  }

  std::sort(out.ptiles.begin(), out.ptiles.end(),
            [](const Ptile& a, const Ptile& b) { return a.users.size() > b.users.size(); });

  for (std::size_t u = 0; u < centers.size(); ++u)
    if (!covered[u]) out.uncovered_users.push_back(u);
  return out;
}

std::vector<double> background_block_areas(const Ptile& ptile) {
  // The frame splits into: a full-width strip above the Ptile, a full-width
  // strip below it, and — unless the Ptile spans all columns — the ring of
  // the Ptile's own rows outside the Ptile, kept as one wraparound block
  // ("partitioned into large blocks along the Ptile's upper and lower
  // horizontal lines").
  std::vector<double> areas;
  const double full = 360.0 * 180.0;
  const EquirectRect& area = ptile.area;

  const double top = area.y_lo * 360.0;
  if (top > 1e-9) areas.push_back(top / full);

  const double bottom = (180.0 - area.y_hi) * 360.0;
  if (bottom > 1e-9) areas.push_back(bottom / full);

  const double ring_width = 360.0 - area.lon.width;
  if (ring_width > 1e-9) areas.push_back(ring_width * area.height() / full);

  return areas;
}

}  // namespace ps360::ptile
