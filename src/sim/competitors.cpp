// Competitor LP allocators (GhoshLP / GhoshRobust). Deterministic
// contract: plan() is a pure function of the workload, the SessionConfig
// (its seed keys the size noise) and the segment state — the LP greedy scans candidates in allocation order
// with strict-> tie-breaking, tile byte noise is read from the video's keyed
// size-noise table (role 7, salted by tile id), and no unordered
// containers or wall-clock reads appear anywhere. plan() emits nothing: its
// SolveRecord says it ran one allocation, which the client counts as
// lp.allocations when it publishes the plan.
#include "sim/competitors.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "predict/visibility.h"
#include "sim/scheme_base.h"
#include "util/check.h"

namespace ps360::sim {

using geometry::EquirectRect;
using geometry::TileIndex;
using geometry::Viewport;

LpAllocation lp_allocate(std::span<const double> weights, std::size_t levels,
                         std::span<const double> tile_bytes,
                         std::span<const double> utility, util::Bytes budget) {
  const std::size_t n = weights.size();
  PS360_CHECK(levels >= 1 && tile_bytes.size() == n * levels);
  PS360_CHECK(utility.size() == levels || utility.size() == n * levels);
  PS360_CHECK(budget.value() >= 0.0);
  for (const double weight : weights) PS360_CHECK(weight >= 0.0);
  // Tile i's utility ladder starts at utility[i * utility_stride]: 0 when
  // every tile shares the one ladder.
  const std::size_t utility_stride = utility.size() == n * levels ? levels : 0;

  LpAllocation out;
  out.level.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out.spent += tile_bytes[i * levels];
    out.utility += weights[i] * utility[i * utility_stride];
  }
  out.feasible = out.spent <= budget.value();
  if (!out.feasible) return out;  // even the floor does not fit: stay there

  // Each tile's next upgrade, priced once, when the tile reaches the level
  // below it. A tile at its top level, or whose next upgrade gains nothing,
  // never moves again, so it leaves `open` (ascending tile order) for good.
  struct Upgrade {
    double cost;   // marginal bytes
    double need;   // bytes the budget must still hold: max(cost, 0)
    double gain;   // weighted marginal utility
    double ratio;  // gain per byte; free (or size-shrinking) upgrades rank
                   // above any paid one
  };
  std::vector<Upgrade> next(n);
  std::vector<std::size_t> open;
  open.reserve(n);
  const auto price = [&](std::size_t i) {
    const auto l = static_cast<std::size_t>(out.level[i]);
    if (l + 1 >= levels) return false;
    const double* bytes = tile_bytes.data() + i * levels;
    const double* u = utility.data() + i * utility_stride;
    const double cost = bytes[l + 1] - bytes[l];
    const double gain = weights[i] * (u[l + 1] - u[l]);
    if (gain <= 0.0) return false;
    next[i] = {cost, std::max(cost, 0.0), gain,
               cost <= 0.0 ? std::numeric_limits<double>::infinity() : gain / cost};
    return true;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (price(i)) open.push_back(i);
  }

  for (;;) {
    std::size_t best_tile = n;
    double best_ratio = 0.0;
    for (const std::size_t i : open) {
      const Upgrade& upgrade = next[i];
      if (out.spent + upgrade.need > budget.value()) continue;
      if (best_tile == n || upgrade.ratio > best_ratio) {  // strict: ties keep lower i
        best_tile = i;
        best_ratio = upgrade.ratio;
      }
    }
    if (best_tile == n) break;
    out.spent += next[best_tile].cost;
    out.utility += next[best_tile].gain;
    ++out.level[best_tile];
    if (!price(best_tile)) open.erase(std::find(open.begin(), open.end(), best_tile));
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// GhoshLP / GhoshRobust

class GhoshScheme : public SchemeBase {
 public:
  GhoshScheme(SchemeKind kind, const VideoWorkload& workload, const SessionConfig& session,
              bool robust)
      : SchemeBase(kind, workload, session), robust_(robust) {
    for (std::size_t id = 0; id < kTiles; ++id)
      tile_rect_[id] = grid_.tile_area({id / kCols, id % kCols});
    for (std::size_t row = 0; row < kRows; ++row)
      row_area_fraction_[row] = tile_rect_[row * kCols].area_fraction();
  }

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double /*prev_qo*/) const override {
    using video::QualityLadder;
    const auto& feat = workload_.features(k);
    const SizeNoiseRow noise = noise_.row(k);
    const double L = workload_.config().segment_seconds;

    // Candidate (allocated) tiles, as row-major tile ids in allocation
    // order, and their weights.
    std::array<std::size_t, kTiles> candidates{};
    std::array<double, kTiles> weights{};
    std::size_t n = 0;
    if (robust_) {
      // Weight every tile the viewport might touch by its visibility
      // probability; the lookahead horizon is the buffer level (how far in
      // the future this segment plays).
      const std::vector<double> visibility = predict::tile_visibility(
          grid_, predicted.center(), predicted.fov_h(), predicted.fov_v(),
          util::DegPerSec(predicted_sfov),
          util::Seconds(std::max(buffer.value(), 0.0)));
      for (std::size_t id = 0; id < kTiles; ++id) {
        if (visibility[id] < kVisibilityFloor) continue;
        candidates[n] = id;
        weights[n] = visibility[id];
        ++n;
      }
    }
    if (n == 0) {
      // Plain variant (and the robust degenerate case): the predicted-FoV
      // tiles, equally weighted — prediction taken at face value.
      const auto rect = grid_.covering_rect(
          predicted.area(), workload_.config().ptile.tile_overlap_threshold);
      for (const TileIndex& t : grid_.tiles_in(rect)) {
        candidates[n] = t.row * kCols + t.col;
        weights[n] = 1.0;
        ++n;
      }
    }

    // A tile's noise-free bytes vary by (row, quality) alone: every column
    // is equally wide, so a tile's area fraction is its row's. Its bytes are
    // those times its keyed noise (role 7) — region_bytes at the original
    // frame rate, whose size factor pow(1, γ) is exactly 1.
    std::array<std::array<double, QualityLadder::kLevels>, kRows> row_bytes{};
    for (std::size_t row = 0; row < kRows; ++row) {
      for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v) {
        row_bytes[row][level_index(v)] =
            video::full_rate_bytes(row_area_fraction_[row], 1, v, feat, L);
      }
    }
    const auto tile_bytes = [&](std::size_t id, int v) {
      return row_bytes[id / kCols][level_index(v)] * noise.ghosh_tile(id, v).factor;
    };

    // Background: every non-candidate tile ships at the lowest level,
    // charged before the allocation budget.
    std::array<bool, kTiles> is_candidate{};
    for (std::size_t i = 0; i < n; ++i) is_candidate[candidates[i]] = true;
    double bg_bytes = 0.0;
    for (std::size_t id = 0; id < kTiles; ++id) {
      if (!is_candidate[id]) bg_bytes += tile_bytes(id, QualityLadder::kMinLevel);
    }
    const double total_budget = bandwidth.value() * L;
    const double budget = std::max(total_budget - bg_bytes, 0.0);

    // One flat cost ladder (candidate-major) and one utility ladder every
    // candidate shares (utility = Eq. 3 Qo at the level's FoV bitrate;
    // costs differ by area and keyed noise, so the allocation is still
    // non-trivial).
    std::array<double, QualityLadder::kLevels> level_utility{};
    std::array<double, kTiles * QualityLadder::kLevels> cost{};
    for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v) {
      level_utility[level_index(v)] = segment_qo(feat, v);
      for (std::size_t i = 0; i < n; ++i)
        cost[i * QualityLadder::kLevels + level_index(v)] = tile_bytes(candidates[i], v);
    }

    const LpAllocation alloc =
        lp_allocate(std::span(weights.data(), n), QualityLadder::kLevels,
                    std::span(cost.data(), n * QualityLadder::kLevels), level_utility,
                    util::Bytes(budget));

    // Collapse the per-tile levels into the session-level plan: the
    // weight-averaged FoV level (deterministic round-half-up) plus the
    // union of the upgraded tiles as the high-quality region.
    double level_sum = 0.0;
    double weight_sum = 0.0;
    bool any_upgraded = false;
    EquirectRect hq;
    for (std::size_t i = 0; i < n; ++i) {
      level_sum += weights[i] * (alloc.level[i] + QualityLadder::kMinLevel);
      weight_sum += weights[i];
      if (alloc.level[i] > 0) {
        const EquirectRect& area = tile_rect_[candidates[i]];
        hq = any_upgraded ? hq.united(area) : area;
        any_upgraded = true;
      }
    }
    const int quality = std::clamp(
        static_cast<int>(std::floor(level_sum / std::max(weight_sum, 1e-12) + 0.5)),
        QualityLadder::kMinLevel, QualityLadder::kMaxLevel);
    if (!any_upgraded) {
      // Everything stayed at the floor: the whole candidate set is the
      // (lowest-quality) served region.
      for (std::size_t i = 0; i < n; ++i) {
        const EquirectRect& area = tile_rect_[candidates[i]];
        hq = i == 0 ? area : hq.united(area);
      }
    }

    DownloadPlan plan;
    plan.option.quality = quality;
    plan.option.frame_index = video::FrameRateLadder::kOptions;
    plan.option.fps = frame_ladder_.fps(video::FrameRateLadder::kOptions);
    plan.option.bytes = bg_bytes + alloc.spent;
    plan.option.qo = level_utility[level_index(quality)];
    plan.option.profile = power::DecodeProfile::kCtile;
    plan.frame_ratio = 1.0;
    plan.mpc_feasible = alloc.feasible && bg_bytes <= total_budget;
    plan.solve.solver = PlanSolver::kLp;
    plan.hq_region = hq;
    return plan;
  }

 private:
  static constexpr double kVisibilityFloor = 0.05;  // robust candidate cutoff
  // The paper's 4x8 grid (SchemeBase::grid_), whose tiles key the size
  // noise's Ghosh role.
  static constexpr std::size_t kRows = geometry::kPaperGridRows;
  static constexpr std::size_t kCols = geometry::kPaperGridCols;
  static constexpr std::size_t kTiles = kRows * kCols;
  static_assert(kTiles == SizeNoiseTable::kGhoshTiles);

  bool robust_;
  std::array<EquirectRect, kTiles> tile_rect_;        // by row-major tile id
  std::array<double, kRows> row_area_fraction_ = {};  // each of its tiles' area fraction
};

}  // namespace

std::unique_ptr<Scheme> make_ghosh_lp(const VideoWorkload& workload,
                                       const SessionConfig& session) {
  return std::make_unique<GhoshScheme>(SchemeKind::kGhoshLp, workload, session,
                                       /*robust=*/false);
}

std::unique_ptr<Scheme> make_ghosh_robust(const VideoWorkload& workload,
                                           const SessionConfig& session) {
  return std::make_unique<GhoshScheme>(SchemeKind::kGhoshRobust, workload, session,
                                       /*robust=*/true);
}

}  // namespace ps360::sim
