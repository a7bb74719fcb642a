// The in-paper Section V schemes plus the controller registry. Each plan()
// is a pure function of (segment, prediction, bandwidth, buffer, prev_qo) —
// no hidden state — so scheme comparisons are reproducible
// decision-for-decision. The registry at the bottom is the single source of
// truth for scheme identity: scheme_name / all_schemes / registered_schemes
// / make_scheme all derive from it, so a controller cannot exist without a
// stable name and a factory (ISSUE 10 bugfixes: no config-dependent kind(),
// no hand-maintained enum lists).
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
// Ctile

class CtileScheme : public SchemeBase {
 public:
  explicit CtileScheme(const SchemeEnv& env)
      : SchemeBase(SchemeKind::kCtile, env),
        controller_(env.mpc, *env.device, core::MpcObjective::kMaxQoE) {}

  void attach_observer(obs::Observer* observer, std::uint32_t session) override {
    controller_.set_observer(observer, session);
  }

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double prev_qo) const override {
    const auto& workload = *env_.workload;
    const auto rect =
        grid_.covering_rect(predicted.area(), env_.tile_overlap_threshold);
    const EquirectRect hq = grid_.rect_area(rect);
    const double hq_area = hq.area_fraction();
    const std::size_t n_hq = rect.tile_count();
    const std::size_t n_bg = grid_.tile_count() - n_hq;
    const double bg_area = std::max(1.0 - hq_area, 0.0);
    const double L = env_.mpc.segment_seconds;

    const BytesFn bytes = [&](std::size_t i, int v, std::size_t fi, double) {
      double total = env_.encoding->region_bytes(hq_area, n_hq, v, workload.features(i),
                                                 L, 1.0, noise_key(workload, i, v, fi, 0));
      if (n_bg > 0 && bg_area > 0.0) {
        total += env_.encoding->region_bytes(bg_area, n_bg, 1, workload.features(i), L,
                                             1.0, noise_key(workload, i, 1, fi, 1));
      }
      return total;
    };

    const auto horizon =
        build_horizon(k, bytes, /*frame_options=*/false, predicted_sfov,
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

 private:
  core::MpcController controller_;
};

// ---------------------------------------------------------------------------
// Ftile

class FtileScheme : public SchemeBase {
 public:
  explicit FtileScheme(const SchemeEnv& env)
      : SchemeBase(SchemeKind::kFtile, env),
        controller_(env.mpc, *env.device, core::MpcObjective::kMaxQoE) {}

  void attach_observer(obs::Observer* observer, std::uint32_t session) override {
    controller_.set_observer(observer, session);
  }

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double prev_qo) const override {
    const auto& workload = *env_.workload;
    const double L = env_.mpc.segment_seconds;
    DownloadPlan plan;
    plan.ftile_layout = &workload.ftile(k);

    // The FoV tile set is computed against each lookahead segment's own
    // layout (layouts are per-segment server-side artifacts). It depends on
    // the segment alone, so it is selected once per segment, not once per
    // (quality, frame) option.
    struct SegmentTiles {
      std::vector<std::size_t> selected;
      std::vector<double> hq_areas, bg_areas;
    };
    const std::size_t end = horizon_end(k);
    std::vector<SegmentTiles> tiles;
    tiles.reserve(end - k);
    for (std::size_t i = k; i < end; ++i) {
      const auto& layout = workload.ftile(i);
      SegmentTiles& seg = tiles.emplace_back();
      seg.selected = layout.tiles_overlapping(predicted);
      for (std::size_t t = 0; t < layout.tile_count(); ++t) {
        const bool is_hq =
            std::find(seg.selected.begin(), seg.selected.end(), t) != seg.selected.end();
        (is_hq ? seg.hq_areas : seg.bg_areas).push_back(layout.tile_areas()[t]);
      }
    }

    const BytesFn bytes = [&](std::size_t i, int v, std::size_t fi, double) {
      const SegmentTiles& seg = tiles[i - k];
      double total = 0.0;
      if (!seg.hq_areas.empty()) {
        total += env_.encoding->tiled_bytes(seg.hq_areas, v, workload.features(i), L, 1.0,
                                            noise_key(workload, i, v, fi, 2));
      }
      if (!seg.bg_areas.empty()) {
        total += env_.encoding->tiled_bytes(seg.bg_areas, 1, workload.features(i), L, 1.0,
                                            noise_key(workload, i, 1, fi, 3));
      }
      return total;
    };

    const auto horizon =
        build_horizon(k, bytes, /*frame_options=*/false, predicted_sfov,
                      power::DecodeProfile::kFtile);
    const core::MpcDecision decision =
        controller_.decide(horizon, bandwidth, buffer, prev_qo);

    plan.option = decision.choice;
    plan.frame_ratio = frame_ladder_.ratio(decision.choice.frame_index);
    plan.mpc_feasible = decision.feasible;
    plan.ftile_tiles = std::move(tiles.front().selected);
    return plan;
  }

  double coverage(const DownloadPlan& plan, const Viewport& actual) const override {
    PS360_ASSERT(plan.ftile_layout != nullptr);
    return plan.ftile_layout->coverage(actual, plan.ftile_tiles);
  }

 private:
  core::MpcController controller_;
};

// ---------------------------------------------------------------------------
// Nontile

class NontileScheme : public SchemeBase {
 public:
  explicit NontileScheme(const SchemeEnv& env)
      : SchemeBase(SchemeKind::kNontile, env),
        controller_(env.mpc, *env.device, core::MpcObjective::kMaxQoE) {}

  void attach_observer(obs::Observer* observer, std::uint32_t session) override {
    controller_.set_observer(observer, session);
  }

  DownloadPlan plan(std::size_t k, const Viewport&, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double prev_qo) const override {
    const auto& workload = *env_.workload;
    const double L = env_.mpc.segment_seconds;

    const BytesFn bytes = [&](std::size_t i, int v, std::size_t fi, double) {
      return env_.encoding->region_bytes(1.0, 1, v, workload.features(i), L, 1.0,
                                         noise_key(workload, i, v, fi, 4));
    };

    const auto horizon =
        build_horizon(k, bytes, /*frame_options=*/false, predicted_sfov,
                      power::DecodeProfile::kNontile);
    const core::MpcDecision decision =
        controller_.decide(horizon, bandwidth, buffer, prev_qo);

    DownloadPlan plan;
    plan.option = decision.choice;
    plan.frame_ratio = frame_ladder_.ratio(decision.choice.frame_index);
    plan.mpc_feasible = decision.feasible;
    plan.hq_region =
        EquirectRect::make(
            geometry::LonInterval::make(geometry::Degrees(0.0), geometry::Degrees(360.0)),
            geometry::Degrees(0.0), geometry::Degrees(180.0));
    return plan;
  }

  double coverage(const DownloadPlan&, const Viewport&) const override {
    return 1.0;  // the whole frame is at the chosen quality
  }

 private:
  core::MpcController controller_;
};

// ---------------------------------------------------------------------------
// Ptile / Ours

class PtileScheme : public SchemeBase {
 public:
  // `kind` is the registry identity (kPtile or kOurs) — passed explicitly by
  // the factory, never inferred from frame_adaptation (PR 10 bugfix).
  PtileScheme(SchemeKind kind, const SchemeEnv& env, bool frame_adaptation)
      : SchemeBase(kind, env),
        frame_adaptation_(frame_adaptation),
        builder_(env.workload->config().ptile),
        controller_(env.mpc, *env.device,
                    core::MpcObjective::kMinEnergyQoEConstrained),
        fallback_(env) {}

  void attach_observer(obs::Observer* observer, std::uint32_t session) override {
    controller_.set_observer(observer, session);
    fallback_.attach_observer(observer, session);  // fallback solves count too
  }

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double prev_qo) const override {
    const auto& workload = *env_.workload;
    const ptile::Ptile* ptile =
        workload.ptiles(k).covering(predicted, env_.ptile_min_coverage);
    if (ptile == nullptr) {
      // Section IV-B: no covering Ptile -> conventional tiles at the best
      // possible quality for this segment.
      DownloadPlan plan =
          fallback_.plan(k, predicted, predicted_sfov, bandwidth, buffer, prev_qo);
      plan.used_ptile = false;
      return plan;
    }

    const double L = env_.mpc.segment_seconds;
    const double ptile_area = ptile->area.area_fraction();
    const std::vector<double> bg_areas = builder_.background_block_areas(*ptile);

    const BytesFn bytes = [&](std::size_t i, int v, std::size_t fi, double ratio) {
      double total =
          env_.encoding->region_bytes(ptile_area, 1, v, workload.features(i), L, ratio,
                                      noise_key(workload, i, v, fi, 5));
      if (!bg_areas.empty()) {
        total += env_.encoding->tiled_bytes(bg_areas, 1, workload.features(i), L, 1.0,
                                            noise_key(workload, i, 1, fi, 6));
      }
      return total;
    };

    const auto horizon = build_horizon(k, bytes, frame_adaptation_, predicted_sfov,
                                       power::DecodeProfile::kPtile);
    const core::MpcDecision decision =
        controller_.decide(horizon, bandwidth, buffer, prev_qo);

    DownloadPlan plan;
    plan.option = decision.choice;
    plan.frame_ratio = frame_ladder_.ratio(decision.choice.frame_index);
    plan.mpc_feasible = decision.feasible;
    plan.used_ptile = true;
    plan.hq_region = ptile->area;
    return plan;
  }

  double coverage(const DownloadPlan& plan, const Viewport& actual) const override {
    if (!plan.used_ptile) return fallback_.coverage(plan, actual);
    return plan.hq_region.coverage_of(actual.area());
  }

 private:
  bool frame_adaptation_;
  ptile::PtileBuilder builder_;
  core::MpcController controller_;
  CtileScheme fallback_;
};

// ---------------------------------------------------------------------------
// Registry

std::unique_ptr<Scheme> make_ctile(const SchemeEnv& env) {
  return std::make_unique<CtileScheme>(env);
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
        {{SchemeKind::kGhoshLp, "GhoshLP", /*in_paper=*/false}, &make_ghosh_lp},
        {{SchemeKind::kGhoshRobust, "GhoshRobust", /*in_paper=*/false},
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
