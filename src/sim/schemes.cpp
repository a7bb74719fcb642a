// The MPC schemes (the Section V five plus Pano) and the controller
// registry. Each plan() is a pure function of (segment, prediction,
// bandwidth, buffer, prev_qo) — no hidden state, no emissions — so scheme
// comparisons are reproducible decision-for-decision. The registry at the
// bottom is the single source of truth for scheme identity: scheme_name /
// all_schemes / registered_schemes / make_scheme all derive from it, so a
// controller cannot exist without a stable name and a factory (no
// config-dependent kind(), no hand-maintained enum lists).
#include "sim/schemes.h"

#include <algorithm>
#include <array>

#include "sim/competitors.h"
#include "sim/scheme_base.h"
#include "util/check.h"

namespace ps360::sim {

using geometry::EquirectRect;
using geometry::Viewport;

namespace {

using SchemeFactory = std::unique_ptr<Scheme> (*)(const SchemeEnv&);

struct ControllerEntry {
  ControllerInfo info;
  SchemeFactory factory;
};

const std::array<ControllerEntry, kSchemeCount>& registry();

}  // namespace

const ControllerInfo& controller_info(SchemeKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  PS360_CHECK_MSG(index < kSchemeCount, "unknown SchemeKind");
  return registry()[index].info;
}

const std::string& scheme_name(SchemeKind kind) {
  static const std::array<std::string, kSchemeCount> names = [] {
    std::array<std::string, kSchemeCount> out;
    for (std::size_t i = 0; i < kSchemeCount; ++i)
      out[i] = std::string(registry()[i].info.name);
    return out;
  }();
  const auto index = static_cast<std::size_t>(kind);
  PS360_CHECK(index < names.size());
  return names[index];
}

SchemeKind scheme_kind(std::string_view name) {
  for (const ControllerEntry& entry : registry()) {
    if (entry.info.name == name) return entry.info.kind;
  }
  throw std::invalid_argument("unknown scheme name: " + std::string(name));
}

std::vector<SchemeKind> all_schemes() {
  std::vector<SchemeKind> kinds;
  kinds.reserve(kPaperSchemeCount);
  for (const ControllerEntry& entry : registry()) {
    if (entry.info.in_paper) kinds.push_back(entry.info.kind);
  }
  return kinds;
}

std::vector<SchemeKind> registered_schemes() {
  std::vector<SchemeKind> kinds;
  kinds.reserve(kSchemeCount);
  for (const ControllerEntry& entry : registry()) kinds.push_back(entry.info.kind);
  return kinds;
}

namespace {

// ---------------------------------------------------------------------------
// Ctile (and Pano)

class CtileScheme : public MpcScheme {
 public:
  // `frame_options` opens the frame-rate ladder to the planner (Pano); the
  // in-paper Ctile and the Ptile fallback plan at the original frame rate.
  CtileScheme(SchemeKind kind, const SchemeEnv& env, bool frame_options)
      : MpcScheme(kind, env, core::MpcObjective::kMaxQoE),
        frame_options_(frame_options) {}

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double prev_qo) const override {
    const auto& workload = *env_.workload;
    const auto rect = grid_.covering_rect(
        predicted.area(), workload.config().ptile.tile_overlap_threshold);
    const EquirectRect hq = grid_.rect_area(rect);
    const double hq_area = hq.area_fraction();
    const std::size_t n_hq = rect.tile_count();
    const std::size_t n_bg = grid_.tile_count() - n_hq;
    const double bg_area = std::max(1.0 - hq_area, 0.0);
    const double L = workload.config().segment_seconds;

    HorizonBytes bytes;
    bytes.served_role = NoiseRole::kCtileHq;
    bytes.served = [&](std::size_t i, int v) {
      return env_.encoding->full_rate_bytes(hq_area, n_hq, v, workload.features(i), L);
    };
    if (n_bg > 0 && bg_area > 0.0) {
      bytes.background_role = NoiseRole::kCtileBackground;
      bytes.background = [&](std::size_t i, int v) {
        return env_.encoding->full_rate_bytes(bg_area, n_bg, v, workload.features(i), L);
      };
    }

    DownloadPlan plan = solve(k, bytes, frame_options_, predicted_sfov,
                              power::DecodeProfile::kCtile, bandwidth, buffer, prev_qo);
    plan.hq_region = hq;
    return plan;
  }

 private:
  bool frame_options_;
};

// Pano (arXiv:1911.04139): Ctile's tiling and encodings (the same noise
// roles, so it streams the files Ctile would) over the full (quality,
// frame-rate) ladder, planned against a perceptually weighted Qo.
class PanoScheme : public CtileScheme {
 public:
  explicit PanoScheme(const SchemeEnv& env)
      : CtileScheme(SchemeKind::kPano, env, /*frame_options=*/true) {}

 protected:
  // The planner's Qo is masked by what the viewer can perceive at this
  // switching speed and content. Delivered-QoE accounting stays on the
  // unweighted Eq. 3 (accounting.cpp owns that).
  double objective_weight(const video::ContentFeatures& feat,
                          double predicted_sfov) const override {
    return qoe::QoModel::perceptual_sensitivity(util::DegPerSec(predicted_sfov), feat.si,
                                                feat.ti);
  }
};

// ---------------------------------------------------------------------------
// Ftile

class FtileScheme : public MpcScheme {
 public:
  explicit FtileScheme(const SchemeEnv& env)
      : MpcScheme(SchemeKind::kFtile, env, core::MpcObjective::kMaxQoE) {}

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double prev_qo) const override {
    const auto& workload = *env_.workload;
    const double L = workload.config().segment_seconds;

    // The FoV tile set is computed against each lookahead segment's own
    // layout (layouts are per-segment server-side artifacts). It depends on
    // the segment alone, so each segment's split into FoV and background
    // tiles — their counts, and their areas summed in tile order as
    // tiled_full_rate_bytes sums a tile list — is taken once per segment,
    // not once per (quality, frame) option. Which blocks the prediction
    // holds depends on the block grid alone, which every segment's layout
    // shares, so it is found once per plan.
    const ptile::FtileLayout& layout = workload.ftile(k);
    const ptile::FtileLayout::BlocksInView view = layout.blocks_in_view(predicted);
    const std::size_t end = horizon_end(k);
    std::vector<ptile::FtileLayout::TileSplit> splits;
    splits.reserve(end - k);
    for (std::size_t i = k; i < end; ++i) splits.push_back(workload.ftile(i).split(view));

    // tiled_full_rate_bytes of a side's tiles: their summed area, capped at
    // the whole frame, as `tiles` tiles. A segment whose layout puts every
    // tile on one side has no region on the other, which costs 0 bytes.
    const auto side_bytes = [&](std::size_t tiles, double area, std::size_t i, int v) {
      return tiles == 0 ? 0.0
                        : env_.encoding->full_rate_bytes(std::min(area, 1.0), tiles, v,
                                                         workload.features(i), L);
    };
    HorizonBytes bytes;
    bytes.served_role = NoiseRole::kFtileHq;
    bytes.served = [&](std::size_t i, int v) {
      const ptile::FtileLayout::TileSplit& split = splits[i - k];
      return side_bytes(split.selected_tiles, split.selected_area, i, v);
    };
    bytes.background_role = NoiseRole::kFtileBackground;
    bytes.background = [&](std::size_t i, int v) {
      const ptile::FtileLayout::TileSplit& split = splits[i - k];
      return side_bytes(split.other_tiles, split.other_area, i, v);
    };

    DownloadPlan plan = solve(k, bytes, /*frame_options=*/false, predicted_sfov,
                              power::DecodeProfile::kFtile, bandwidth, buffer, prev_qo);
    plan.ftile_layout = &layout;
    plan.ftile_tiles = layout.tiles_overlapping(view);
    return plan;
  }

  double coverage(const DownloadPlan& plan, const Viewport& actual) const override {
    PS360_ASSERT(plan.ftile_layout != nullptr);
    return plan.ftile_layout->coverage(actual, plan.ftile_tiles);
  }
};

// ---------------------------------------------------------------------------
// Nontile

class NontileScheme : public MpcScheme {
 public:
  explicit NontileScheme(const SchemeEnv& env)
      : MpcScheme(SchemeKind::kNontile, env, core::MpcObjective::kMaxQoE) {}

  DownloadPlan plan(std::size_t k, const Viewport&, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double prev_qo) const override {
    const auto& workload = *env_.workload;
    const double L = workload.config().segment_seconds;

    HorizonBytes bytes;
    bytes.served_role = NoiseRole::kNontile;
    bytes.served = [&](std::size_t i, int v) {
      return env_.encoding->full_rate_bytes(1.0, 1, v, workload.features(i), L);
    };

    DownloadPlan plan = solve(k, bytes, /*frame_options=*/false, predicted_sfov,
                              power::DecodeProfile::kNontile, bandwidth, buffer, prev_qo);
    plan.hq_region =
        EquirectRect::make(
            geometry::LonInterval::make(geometry::Degrees(0.0), geometry::Degrees(360.0)),
            geometry::Degrees(0.0), geometry::Degrees(180.0));
    return plan;
  }

  double coverage(const DownloadPlan&, const Viewport&) const override {
    return 1.0;  // the whole frame is at the chosen quality
  }
};

// ---------------------------------------------------------------------------
// Ptile / Ours

class PtileScheme : public MpcScheme {
 public:
  // `kind` is the registry identity (kPtile or kOurs) — passed explicitly by
  // the factory, never inferred from frame_adaptation (PR 10 bugfix).
  PtileScheme(SchemeKind kind, const SchemeEnv& env, bool frame_adaptation)
      : MpcScheme(kind, env, core::MpcObjective::kMinEnergyQoEConstrained),
        frame_adaptation_(frame_adaptation),
        fallback_(SchemeKind::kCtile, env, /*frame_options=*/false) {}

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double prev_qo) const override {
    const auto& workload = *env_.workload;
    const ptile::Ptile* ptile =
        workload.ptiles(k).covering(predicted, env_.session->ptile_min_coverage);
    if (ptile == nullptr) {
      // Section IV-B: no covering Ptile -> conventional tiles at the best
      // possible quality for this segment (used_ptile stays false).
      return fallback_.plan(k, predicted, predicted_sfov, bandwidth, buffer, prev_qo);
    }

    const double L = workload.config().segment_seconds;
    const double ptile_area = ptile->area.area_fraction();
    const std::vector<double> bg_areas = ptile::background_block_areas(*ptile);

    HorizonBytes bytes;
    bytes.served_role = NoiseRole::kPtile;
    bytes.served = [&](std::size_t i, int v) {
      return env_.encoding->full_rate_bytes(ptile_area, 1, v, workload.features(i), L);
    };
    if (!bg_areas.empty()) {
      bytes.background_role = NoiseRole::kPtileBackground;
      bytes.background = [&](std::size_t i, int v) {
        return env_.encoding->tiled_full_rate_bytes(bg_areas, v, workload.features(i), L);
      };
    }

    DownloadPlan plan = solve(k, bytes, frame_adaptation_, predicted_sfov,
                              power::DecodeProfile::kPtile, bandwidth, buffer, prev_qo);
    plan.used_ptile = true;
    plan.hq_region = ptile->area;
    return plan;
  }

 private:
  bool frame_adaptation_;
  CtileScheme fallback_;
};

// ---------------------------------------------------------------------------
// Registry

std::unique_ptr<Scheme> make_ctile(const SchemeEnv& env) {
  return std::make_unique<CtileScheme>(SchemeKind::kCtile, env, /*frame_options=*/false);
}
std::unique_ptr<Scheme> make_ftile(const SchemeEnv& env) {
  return std::make_unique<FtileScheme>(env);
}
std::unique_ptr<Scheme> make_nontile(const SchemeEnv& env) {
  return std::make_unique<NontileScheme>(env);
}
std::unique_ptr<Scheme> make_ptile_fixed(const SchemeEnv& env) {
  return std::make_unique<PtileScheme>(SchemeKind::kPtile, env,
                                       /*frame_adaptation=*/false);
}
std::unique_ptr<Scheme> make_ours(const SchemeEnv& env) {
  return std::make_unique<PtileScheme>(SchemeKind::kOurs, env,
                                       /*frame_adaptation=*/true);
}
std::unique_ptr<Scheme> make_pano(const SchemeEnv& env) {
  return std::make_unique<PanoScheme>(env);
}

// Row i must register SchemeKind(i): every accessor indexes by enum value,
// and the registry round-trip test (make → name → make) walks each row.
const std::array<ControllerEntry, kSchemeCount>& registry() {
  static const std::array<ControllerEntry, kSchemeCount> entries = [] {
    std::array<ControllerEntry, kSchemeCount> table = {{
        {{SchemeKind::kCtile, "Ctile", /*in_paper=*/true}, &make_ctile},
        {{SchemeKind::kFtile, "Ftile", /*in_paper=*/true}, &make_ftile},
        {{SchemeKind::kNontile, "Nontile", /*in_paper=*/true}, &make_nontile},
        {{SchemeKind::kPtile, "Ptile", /*in_paper=*/true}, &make_ptile_fixed},
        {{SchemeKind::kOurs, "Ours", /*in_paper=*/true}, &make_ours},
        {{SchemeKind::kGhoshLp, "GhoshLP", /*in_paper=*/false, PlanSolver::kLp},
         &make_ghosh_lp},
        {{SchemeKind::kGhoshRobust, "GhoshRobust", /*in_paper=*/false, PlanSolver::kLp},
         &make_ghosh_robust},
        {{SchemeKind::kPano, "Pano", /*in_paper=*/false}, &make_pano},
    }};
    for (std::size_t i = 0; i < table.size(); ++i) {
      PS360_ASSERT(static_cast<std::size_t>(table[i].info.kind) == i);
      PS360_ASSERT(!table[i].info.name.empty() && table[i].factory != nullptr);
    }
    return table;
  }();
  return entries;
}

}  // namespace

std::unique_ptr<Scheme> make_scheme(SchemeKind kind, const SchemeEnv& env) {
  const auto index = static_cast<std::size_t>(kind);
  PS360_CHECK_MSG(index < kSchemeCount, "unknown scheme kind");
  return registry()[index].factory(env);
}

std::unique_ptr<Scheme> make_scheme(std::string_view name, const SchemeEnv& env) {
  return make_scheme(scheme_kind(name), env);
}

}  // namespace ps360::sim
