// Ptile construction (Section IV-A).
//
// For each video segment, the viewing centers of the training users are
// clustered with Algorithm 1; each sufficiently popular cluster becomes a
// Ptile: the grid-aligned block of conventional tiles covering the member
// users' viewing areas, encoded as one large tile. The area outside the
// Ptile is partitioned into a few large blocks along the Ptile's upper and
// lower horizontal edges and encoded at the lowest quality, so a user whose
// gaze leaves the Ptile still sees something.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/tile_grid.h"
#include "ptile/clusterer.h"

namespace ps360::ptile {

// Ptiles are merged from the paper's 4x8 grid (geometry::kPaperGridRows x
// kPaperGridCols), the grid every scheme's tiles use.
struct PtileBuildConfig {
  ClustererConfig clustering;   // σ = tile width, δ = σ/4 by default
  std::size_t min_users = 5;    // 10% of the 48-user dataset, as in Sec. V-B
  // Boundary tiles overlapped by less than this fraction of their area are
  // not merged into the Ptile, in [0, 1). The schemes read the workload's
  // value for their FoV tiles too (how the paper's "nine FoV tiles" arise
  // from a 100° FoV on a 45° grid), so one rule covers both.
  double tile_overlap_threshold = 0.25;
};

struct Ptile {
  geometry::TileRect rect;        // grid tiles merged into this Ptile
  geometry::EquirectRect area;    // equirect footprint of `rect`
  std::vector<std::size_t> users; // member (training) user indices
};

struct SegmentPtiles {
  std::vector<Ptile> ptiles;                 // sorted by member count, desc
  std::vector<std::size_t> uncovered_users;  // training users in no Ptile

  // First Ptile whose area covers at least `min_coverage` of the viewport,
  // or nullptr.
  const Ptile* covering(const geometry::Viewport& viewport,
                        double min_coverage = 0.95) const;
};

class PtileBuilder {
 public:
  // Member viewing areas are `fov` x `fov` viewports (the workload passes
  // its WorkloadConfig::fov_deg), in (0, 180].
  explicit PtileBuilder(geometry::Degrees fov, PtileBuildConfig config = {});

  const PtileBuildConfig& config() const { return config_; }
  const geometry::TileGrid& grid() const { return grid_; }

  // Build the Ptiles for one segment from the training users' viewing
  // centers (index in `centers` == user index).
  SegmentPtiles build(const std::vector<geometry::EquirectPoint>& centers) const;

 private:
  geometry::Degrees fov_;
  PtileBuildConfig config_;
  geometry::TileGrid grid_;
};

// Area fractions of the low-quality background blocks accompanying a
// Ptile: a strip above, a strip below, and the remaining ring at the
// Ptile's own rows (absent pieces omitted). Sums with the Ptile to 1.
std::vector<double> background_block_areas(const Ptile& ptile);

}  // namespace ps360::ptile
