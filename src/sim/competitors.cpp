// Competitor controllers (GhoshLP / GhoshRobust / Pano). Deterministic
// contract: plan() is a pure function of the SchemeEnv, segment state, and
// the session seed — the LP greedy iterates tiles in row-major index order
// with strict-> tie-breaking, tile byte noise comes from counter-mode
// derive_seed streams (role 7, salted by tile id), and no unordered
// containers or wall-clock reads appear anywhere. attach_observer only adds
// counters, so hook wiring never changes decisions (pinned by
// tests/tournament_test.cpp).
#include "sim/competitors.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/observer.h"
#include "predict/visibility.h"
#include "qoe/qo_model.h"
#include "sim/scheme_base.h"
#include "util/check.h"

namespace ps360::sim {

using geometry::EquirectRect;
using geometry::TileIndex;
using geometry::Viewport;

LpAllocation lp_allocate(const std::vector<double>& weights,
                         const std::vector<std::vector<double>>& tile_bytes,
                         const std::vector<std::vector<double>>& tile_utility,
                         util::Bytes budget) {
  const std::size_t n = weights.size();
  PS360_CHECK(tile_bytes.size() == n && tile_utility.size() == n);
  PS360_CHECK(budget.value() >= 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    PS360_CHECK(weights[i] >= 0.0);
    PS360_CHECK(!tile_bytes[i].empty() && tile_bytes[i].size() == tile_utility[i].size());
  }

  LpAllocation out;
  out.level.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out.spent += tile_bytes[i][0];
    out.utility += weights[i] * tile_utility[i][0];
  }
  out.feasible = out.spent <= budget.value();
  if (!out.feasible) return out;  // even the floor does not fit: stay there

  for (;;) {
    std::size_t best_tile = n;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto l = static_cast<std::size_t>(out.level[i]);
      if (l + 1 >= tile_bytes[i].size()) continue;
      const double cost = tile_bytes[i][l + 1] - tile_bytes[i][l];
      const double gain = weights[i] * (tile_utility[i][l + 1] - tile_utility[i][l]);
      if (gain <= 0.0) continue;
      if (out.spent + std::max(cost, 0.0) > budget.value()) continue;
      // Free (or size-shrinking) upgrades rank above any paid one.
      const double ratio = cost <= 0.0 ? std::numeric_limits<double>::infinity()
                                       : gain / cost;
      if (best_tile == n || ratio > best_ratio) {  // strict: ties keep lower i
        best_tile = i;
        best_ratio = ratio;
      }
    }
    if (best_tile == n) break;
    const auto l = static_cast<std::size_t>(out.level[best_tile]);
    out.spent += tile_bytes[best_tile][l + 1] - tile_bytes[best_tile][l];
    out.utility +=
        weights[best_tile] * (tile_utility[best_tile][l + 1] - tile_utility[best_tile][l]);
    out.level[best_tile] = static_cast<int>(l + 1);
  }
  return out;
}

namespace {

// Noise role 7 (roles 0-6 belong to the in-paper schemes); the tile's
// row-major id is folded in through the salt overload so per-tile sizes
// vary independently.
constexpr int kGhoshNoiseRole = 7;

// ---------------------------------------------------------------------------
// GhoshLP / GhoshRobust

class GhoshScheme : public SchemeBase {
 public:
  GhoshScheme(SchemeKind kind, const SchemeEnv& env, bool robust)
      : SchemeBase(kind, env), robust_(robust) {}

  void attach_observer(obs::Observer* observer, std::uint32_t session) override {
    observer_ = observer;
    session_ = session;
    if (observer_ != nullptr && observer_->metrics != nullptr)
      id_allocations_ = observer_->metrics->counter("lp.allocations");
  }

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double /*prev_qo*/) const override {
    const auto& workload = *env_.workload;
    const auto& feat = workload.features(k);
    const double L = env_.mpc.segment_seconds;

    // Candidate (allocated) tiles and their weights.
    std::vector<TileIndex> candidates;
    std::vector<double> weights;
    if (robust_) {
      // Weight every tile the viewport might touch by its visibility
      // probability; the lookahead horizon is the buffer level (how far in
      // the future this segment plays).
      const std::vector<double> visibility = predict::tile_visibility(
          grid_, predicted.center(), predicted.fov_h(), predicted.fov_v(),
          util::DegPerSec(predicted_sfov),
          util::Seconds(std::max(buffer.value(), 0.0)));
      for (std::size_t row = 0; row < grid_.rows(); ++row) {
        for (std::size_t col = 0; col < grid_.cols(); ++col) {
          const double p = visibility[row * grid_.cols() + col];
          if (p < kVisibilityFloor) continue;
          candidates.push_back({row, col});
          weights.push_back(p);
        }
      }
    }
    if (candidates.empty()) {
      // Plain variant (and the robust degenerate case): the predicted-FoV
      // tiles, equally weighted — prediction taken at face value.
      const auto rect =
          grid_.covering_rect(predicted.area(), env_.tile_overlap_threshold);
      candidates = grid_.tiles_in(rect);
      weights.assign(candidates.size(), 1.0);
    }

    // Background: every non-candidate tile ships at the lowest level,
    // charged before the allocation budget.
    std::vector<char> is_candidate(grid_.tile_count(), 0);
    for (const TileIndex& t : candidates) is_candidate[tile_id(t)] = 1;
    double bg_bytes = 0.0;
    for (std::size_t id = 0; id < grid_.tile_count(); ++id) {
      if (is_candidate[id]) continue;
      bg_bytes += tile_level_bytes(k, {id / grid_.cols(), id % grid_.cols()},
                                   video::QualityLadder::kMinLevel, feat, L);
    }
    const double total_budget = bandwidth.value() * L;
    const double budget = std::max(total_budget - bg_bytes, 0.0);

    // Per-candidate cost and utility ladders (utility = Eq. 3 Qo at the
    // level's FoV bitrate; identical across tiles, but costs differ by
    // area and keyed noise, so the allocation is still non-trivial).
    std::vector<std::vector<double>> tile_bytes(candidates.size());
    std::vector<std::vector<double>> tile_utility(candidates.size());
    std::vector<double> level_utility;
    for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
         ++v) {
      level_utility.push_back(env_.qo_model->qo(
          feat.si, feat.ti, util::Mbps(env_.encoding->fov_bitrate_mbps(v, feat))));
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      for (int v = video::QualityLadder::kMinLevel;
           v <= video::QualityLadder::kMaxLevel; ++v) {
        tile_bytes[i].push_back(tile_level_bytes(k, candidates[i], v, feat, L));
      }
      tile_utility[i] = level_utility;
    }

    const LpAllocation alloc =
        lp_allocate(weights, tile_bytes, tile_utility, util::Bytes(budget));
    if (observer_ != nullptr && observer_->metrics != nullptr)
      observer_->metrics->add(id_allocations_);

    // Collapse the per-tile levels into the session-level plan: the
    // weight-averaged FoV level (deterministic round-half-up) plus the
    // union of the upgraded tiles as the high-quality region.
    double level_sum = 0.0;
    double weight_sum = 0.0;
    bool any_upgraded = false;
    EquirectRect hq;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      level_sum += weights[i] * (alloc.level[i] + video::QualityLadder::kMinLevel);
      weight_sum += weights[i];
      if (alloc.level[i] > 0) {
        const EquirectRect area = grid_.tile_area(candidates[i]);
        hq = any_upgraded ? hq.united(area) : area;
        any_upgraded = true;
      }
    }
    const int quality = std::clamp(
        static_cast<int>(std::floor(level_sum / std::max(weight_sum, 1e-12) + 0.5)),
        video::QualityLadder::kMinLevel, video::QualityLadder::kMaxLevel);
    if (!any_upgraded) {
      // Everything stayed at the floor: the whole candidate set is the
      // (lowest-quality) served region.
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const EquirectRect area = grid_.tile_area(candidates[i]);
        hq = i == 0 ? area : hq.united(area);
      }
    }

    DownloadPlan plan;
    plan.option.quality = quality;
    plan.option.frame_index = video::FrameRateLadder::kOptions;
    plan.option.fps = frame_ladder_.fps(video::FrameRateLadder::kOptions);
    plan.option.bytes = bg_bytes + alloc.spent;
    plan.option.qo = predicted_qo(k, quality, 1.0, predicted_sfov);
    plan.option.profile = power::DecodeProfile::kCtile;
    plan.frame_ratio = 1.0;
    plan.mpc_feasible = alloc.feasible && bg_bytes <= total_budget;
    plan.hq_region = hq;
    return plan;
  }

  double coverage(const DownloadPlan& plan, const Viewport& actual) const override {
    return plan.hq_region.coverage_of(actual.area());
  }

 private:
  static constexpr double kVisibilityFloor = 0.05;  // robust candidate cutoff

  std::size_t tile_id(const TileIndex& t) const { return t.row * grid_.cols() + t.col; }

  double tile_level_bytes(std::size_t segment, const TileIndex& t, int quality,
                          const video::ContentFeatures& feat, double seconds) const {
    return env_.encoding->region_bytes(
        grid_.tile_area(t).area_fraction(), 1, quality, feat, seconds, 1.0,
        noise_key(*env_.workload, segment, quality, video::FrameRateLadder::kOptions,
                  kGhoshNoiseRole, tile_id(t)));
  }

  bool robust_;
  obs::Observer* observer_ = nullptr;
  std::uint32_t session_ = 0;
  obs::MetricsRegistry::Id id_allocations_{};
};

// ---------------------------------------------------------------------------
// Pano

class PanoScheme : public SchemeBase {
 public:
  explicit PanoScheme(const SchemeEnv& env)
      : SchemeBase(SchemeKind::kPano, env),
        controller_(env.mpc, *env.device, core::MpcObjective::kMaxQoE) {}

  void attach_observer(obs::Observer* observer, std::uint32_t session) override {
    controller_.set_observer(observer, session);
  }

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double prev_qo) const override {
    // Ctile download geometry (same tiling, same per-role noise keys, so
    // Pano streams the exact same encodings Ctile would) — the difference
    // is purely the objective: perceptually weighted Qo over the full
    // (quality, frame-rate) ladder.
    const auto& workload = *env_.workload;
    const auto rect =
        grid_.covering_rect(predicted.area(), env_.tile_overlap_threshold);
    const EquirectRect hq = grid_.rect_area(rect);
    const double hq_area = hq.area_fraction();
    const std::size_t n_hq = rect.tile_count();
    const std::size_t n_bg = grid_.tile_count() - n_hq;
    const double bg_area = std::max(1.0 - hq_area, 0.0);
    const double L = env_.mpc.segment_seconds;

    const BytesFn bytes = [&](std::size_t i, int v, std::size_t fi, double ratio) {
      double total =
          env_.encoding->region_bytes(hq_area, n_hq, v, workload.features(i), L, ratio,
                                      noise_key(workload, i, v, fi, 0));
      if (n_bg > 0 && bg_area > 0.0) {
        total += env_.encoding->region_bytes(bg_area, n_bg, 1, workload.features(i), L,
                                             1.0, noise_key(workload, i, 1, fi, 1));
      }
      return total;
    };

    const auto horizon =
        build_horizon(k, bytes, /*frame_options=*/true, predicted_sfov,
                      power::DecodeProfile::kCtile);
    const core::MpcDecision decision =
        controller_.decide(horizon, bandwidth, buffer, prev_qo);

    DownloadPlan plan;
    plan.option = decision.choice;
    plan.frame_ratio = frame_ladder_.ratio(decision.choice.frame_index);
    plan.mpc_feasible = decision.feasible;
    plan.hq_region = hq;
    return plan;
  }

  double coverage(const DownloadPlan& plan, const Viewport& actual) const override {
    return plan.hq_region.coverage_of(actual.area());
  }

 protected:
  // The Pano twist: the planner's Qo is masked by what the viewer can
  // actually perceive at this switching speed and content. Delivered-QoE
  // accounting stays on the unweighted Eq. 3 (accounting.cpp owns that).
  double predicted_qo(std::size_t segment, int quality, double frame_ratio,
                      double predicted_sfov) const override {
    const auto& feat = env_.workload->features(segment);
    return SchemeBase::predicted_qo(segment, quality, frame_ratio, predicted_sfov) *
           qoe::QoModel::perceptual_sensitivity(util::DegPerSec(predicted_sfov),
                                                feat.si, feat.ti);
  }

 private:
  core::MpcController controller_;
};

}  // namespace

std::unique_ptr<Scheme> make_ghosh_lp(const SchemeEnv& env) {
  return std::make_unique<GhoshScheme>(SchemeKind::kGhoshLp, env, /*robust=*/false);
}

std::unique_ptr<Scheme> make_ghosh_robust(const SchemeEnv& env) {
  return std::make_unique<GhoshScheme>(SchemeKind::kGhoshRobust, env, /*robust=*/true);
}

std::unique_ptr<Scheme> make_pano(const SchemeEnv& env) {
  return std::make_unique<PanoScheme>(env);
}

}  // namespace ps360::sim
