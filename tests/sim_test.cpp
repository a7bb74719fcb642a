// Tests for the sim module: workload precomputation, scheme planning
// behaviour, and the streaming-session mechanics (buffer evolution,
// energy/QoE accounting, determinism).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "sim/experiment.h"
#include "sim/session.h"

namespace ps360::sim {
namespace {

// Shared workload for the shortest test video (video 6, 164 s) so the suite
// builds it once.
const VideoWorkload& football_workload() {
  static const VideoWorkload workload(trace::test_videos()[5], WorkloadConfig{});
  return workload;
}

const trace::NetworkTrace& trace1() {
  static const trace::NetworkTrace t = trace::make_paper_traces(7, util::Seconds(400.0)).first;
  return t;
}

const trace::NetworkTrace& trace2() {
  static const trace::NetworkTrace t = trace::make_paper_traces(7, util::Seconds(400.0)).second;
  return t;
}

// ---------------------------------------------------------------- Workload

TEST(WorkloadTest, DimensionsMatchConfig) {
  const auto& w = football_workload();
  EXPECT_EQ(w.segment_count(), 164u);
  EXPECT_EQ(w.test_user_count(), 8u);
  EXPECT_EQ(w.training_centers(0).size(), 40u);
  EXPECT_EQ(w.video().id, 6);
}

TEST(WorkloadTest, FeaturesAndPtilesPerSegment) {
  const auto& w = football_workload();
  for (std::size_t k = 0; k < w.segment_count(); k += 13) {
    const auto& feat = w.features(k);
    EXPECT_GE(feat.si, 10.0);
    EXPECT_LE(feat.ti, 80.0);
    // Every Ptile respects the minimum-user rule.
    for (const auto& ptile : w.ptiles(k).ptiles) {
      EXPECT_GE(ptile.users.size(), w.config().ptile.min_users);
      EXPECT_GT(ptile.area.area_fraction(), 0.0);
    }
  }
}

TEST(WorkloadTest, MostSegmentsHaveFewPtiles) {
  // Fig. 7(a): even free-viewing videos mostly need one or two Ptiles.
  const auto& w = football_workload();
  std::size_t at_most_two = 0;
  for (std::size_t k = 0; k < w.segment_count(); ++k) {
    if (w.ptiles(k).ptiles.size() <= 2) ++at_most_two;
  }
  EXPECT_GT(static_cast<double>(at_most_two) / static_cast<double>(w.segment_count()), 0.6);
}

TEST(WorkloadTest, TestTracesAreHeldOut) {
  const auto& w = football_workload();
  // Test user 0 is dataset user 40 — distinct from every training trace.
  const auto& test0 = w.test_trace(0);
  EXPECT_EQ(&test0, &w.user_trace(40));
  EXPECT_THROW(w.test_trace(8), std::invalid_argument);
}

TEST(WorkloadTest, ActualViewportAndSpeedAreConsistent) {
  const auto& w = football_workload();
  const auto vp = w.actual_viewport(0, 10);
  EXPECT_NEAR(vp.fov_h().value(), w.config().fov_deg, 1e-12);
  const double speed = w.actual_switching_speed(0, 10);
  EXPECT_GE(speed, 0.0);
  EXPECT_LT(speed, 400.0);
}

TEST(WorkloadTest, FtileLayoutsLazyButStable) {
  const auto& w = football_workload();
  const auto& layout_a = w.ftile(3);
  const auto& layout_b = w.ftile(3);
  EXPECT_EQ(&layout_a, &layout_b);
  EXPECT_GE(layout_a.tile_count(), 2u);
  EXPECT_LE(layout_a.tile_count(), 10u);
}

TEST(WorkloadTest, ConfigValidation) {
  WorkloadConfig bad;
  bad.n_training_users = 48;  // no test users left
  EXPECT_THROW(VideoWorkload(trace::test_videos()[5], bad), std::invalid_argument);
}

// ----------------------------------------------------------------- Schemes

struct PlannerFixture {
  PlannerFixture() {
    env.workload = &football_workload();
    env.encoding = &encoding;
    env.qo_model = &qo_model;
    env.device = &power::device_model(power::Device::kPixel3);
  }

  DownloadPlan plan(SchemeKind kind, std::size_t segment = 10,
                    double bandwidth = 600e3, double buffer = 3.0) const {
    const auto scheme = make_scheme(kind, env);
    const auto center =
        football_workload().test_trace(0).center_at(static_cast<double>(segment));
    const geometry::Viewport predicted(center, geometry::Degrees(120.0),
                                       geometry::Degrees(120.0));
    return scheme->plan(segment, predicted, 10.0, util::BytesPerSec(bandwidth), util::Seconds(buffer), -1.0);
  }

  video::EncodingModel encoding;
  qoe::QoModel qo_model{qoe::QoParams{}, 4.0};
  SchemeEnv env;
};

TEST(SchemeTest, InvalidKindThrowsInsteadOfIndexingOutOfBounds) {
  EXPECT_THROW(scheme_name(static_cast<SchemeKind>(99)), std::invalid_argument);
}

TEST(SchemeTest, NamesAndFactory) {
  EXPECT_EQ(scheme_name(SchemeKind::kOurs), "Ours");
  // all_schemes() is the Section V comparison set; the full registry
  // (competitors included) is registered_schemes().
  EXPECT_EQ(all_schemes().size(), kPaperSchemeCount);
  EXPECT_EQ(registered_schemes().size(), kSchemeCount);
  const PlannerFixture fixture;
  for (SchemeKind kind : registered_schemes()) {
    EXPECT_EQ(make_scheme(kind, fixture.env)->kind(), kind);
  }
}

TEST(SchemeTest, DecodeProfilesMatchPipelines) {
  const PlannerFixture fixture;
  EXPECT_EQ(fixture.plan(SchemeKind::kCtile).option.profile,
            power::DecodeProfile::kCtile);
  EXPECT_EQ(fixture.plan(SchemeKind::kFtile).option.profile,
            power::DecodeProfile::kFtile);
  EXPECT_EQ(fixture.plan(SchemeKind::kNontile).option.profile,
            power::DecodeProfile::kNontile);
  const auto ptile_plan = fixture.plan(SchemeKind::kPtile);
  if (ptile_plan.used_ptile) {
    EXPECT_EQ(ptile_plan.option.profile, power::DecodeProfile::kPtile);
  } else {
    EXPECT_EQ(ptile_plan.option.profile, power::DecodeProfile::kCtile);
  }
}

TEST(SchemeTest, BaselinesKeepOriginalFrameRate) {
  const PlannerFixture fixture;
  for (SchemeKind kind : {SchemeKind::kCtile, SchemeKind::kFtile,
                          SchemeKind::kNontile, SchemeKind::kPtile}) {
    const auto plan = fixture.plan(kind);
    EXPECT_DOUBLE_EQ(plan.frame_ratio, 1.0) << scheme_name(kind);
    EXPECT_DOUBLE_EQ(plan.option.fps, 30.0) << scheme_name(kind);
  }
}

TEST(SchemeTest, MoreBandwidthNeverLowersQuality) {
  const PlannerFixture fixture;
  for (SchemeKind kind : all_schemes()) {
    const auto poor = fixture.plan(kind, 10, 150e3);
    const auto rich = fixture.plan(kind, 10, 3e6);
    EXPECT_GE(rich.option.quality, poor.option.quality) << scheme_name(kind);
  }
}

TEST(SchemeTest, NontileCoversEverythingCtileCoversViewport) {
  const PlannerFixture fixture;
  const auto scheme_n = make_scheme(SchemeKind::kNontile, fixture.env);
  const auto scheme_c = make_scheme(SchemeKind::kCtile, fixture.env);
  const auto plan_n = fixture.plan(SchemeKind::kNontile);
  const auto plan_c = fixture.plan(SchemeKind::kCtile);
  const auto far_away = geometry::Viewport(
      geometry::EquirectPoint::make(geometry::Degrees(geometry::wrap360(geometry::Degrees(plan_c.hq_region.lon.lo + 180.0)).value()), geometry::Degrees(90.0)));
  EXPECT_DOUBLE_EQ(scheme_n->coverage(plan_n, far_away), 1.0);
  EXPECT_LT(scheme_c->coverage(plan_c, far_away), 0.2);
}

TEST(SchemeTest, PtileFallsBackToConventionalTilesWhenUncovered) {
  const PlannerFixture fixture;
  const auto scheme = make_scheme(SchemeKind::kPtile, fixture.env);
  // A viewport far from every training user's interest: no covering Ptile.
  const auto& ptiles = football_workload().ptiles(10).ptiles;
  double far_lon = 0.0;
  for (double candidate = 0.0; candidate < 360.0; candidate += 15.0) {
    bool clear = true;
    for (const auto& p : ptiles) {
      if (p.area.lon.contains(geometry::Degrees(candidate))) clear = false;
    }
    if (clear) {
      far_lon = candidate;
      break;
    }
  }
  const geometry::Viewport away(
      geometry::EquirectPoint::make(geometry::Degrees(far_lon),
                                    geometry::Degrees(90.0)),
      geometry::Degrees(120.0), geometry::Degrees(120.0));
  const auto plan = scheme->plan(10, away, 10.0, util::BytesPerSec(600e3), util::Seconds(3.0), -1.0);
  EXPECT_FALSE(plan.used_ptile);
  EXPECT_EQ(plan.option.profile, power::DecodeProfile::kCtile);
}

TEST(SchemeTest, CtileBytesDecomposeIntoFovAndBackground) {
  // Reconstruct the Ctile plan's byte budget from the encoding model: FoV
  // tiles at the chosen quality + the remaining grid tiles at quality 1.
  const PlannerFixture fixture;
  const auto plan = fixture.plan(SchemeKind::kCtile, 10);
  const geometry::TileGrid grid(4, 8);
  const auto rect = grid.covering_rect(plan.hq_region);
  const auto& feat = football_workload().features(10);
  const double fov_area = plan.hq_region.area_fraction();
  // The scheme uses per-segment noise keys we don't reproduce here, so
  // compare against the noise-free expectation with a generous band
  // (sigma_log = 0.1 -> ~±30% tail).
  const double expected_fov = fixture.encoding.region_bytes(
      fov_area, rect.tile_count(), plan.option.quality, feat, 1.0);
  const double expected_bg = fixture.encoding.region_bytes(
      1.0 - fov_area, grid.tile_count() - rect.tile_count(), 1, feat, 1.0);
  EXPECT_NEAR(plan.option.bytes, expected_fov + expected_bg,
              0.5 * (expected_fov + expected_bg));
}

TEST(SchemeTest, PtilePlanChargesPtilePlusBackgroundBlocks) {
  const PlannerFixture fixture;
  const auto plan = fixture.plan(SchemeKind::kPtile, 10);
  if (!plan.used_ptile) GTEST_SKIP() << "no covering Ptile at this segment";
  const auto& feat = football_workload().features(10);
  const double area = plan.hq_region.area_fraction();
  const double expected_min =
      fixture.encoding.region_bytes(area, 1, plan.option.quality, feat, 1.0) * 0.6;
  const double expected_max =
      fixture.encoding.region_bytes(area, 1, plan.option.quality, feat, 1.0) * 1.6 +
      fixture.encoding.region_bytes(1.0 - area, 3, 1, feat, 1.0) * 1.6;
  EXPECT_GT(plan.option.bytes, expected_min);
  EXPECT_LT(plan.option.bytes, expected_max);
}

TEST(SchemeTest, NontileBytesAreWholeFrame) {
  const PlannerFixture fixture;
  const auto plan = fixture.plan(SchemeKind::kNontile, 10);
  const auto& feat = football_workload().features(10);
  const double expected =
      fixture.encoding.region_bytes(1.0, 1, plan.option.quality, feat, 1.0);
  EXPECT_NEAR(plan.option.bytes, expected, 0.5 * expected);
}

TEST(SchemeTest, FtileDownloadsSubsetOfTiles) {
  const PlannerFixture fixture;
  const auto plan = fixture.plan(SchemeKind::kFtile, 10);
  ASSERT_NE(plan.ftile_layout, nullptr);
  EXPECT_FALSE(plan.ftile_tiles.empty());
  EXPECT_LT(plan.ftile_tiles.size(), plan.ftile_layout->tile_count());
  for (std::size_t t : plan.ftile_tiles) {
    EXPECT_LT(t, plan.ftile_layout->tile_count());
  }
}

TEST(SchemeTest, OursUsesReducedFramesUnderFastSwitching) {
  const PlannerFixture fixture;
  const auto scheme = make_scheme(SchemeKind::kOurs, fixture.env);
  const auto center = football_workload().test_trace(0).center_at(10);
  const geometry::Viewport predicted(center, geometry::Degrees(120.0),
                                       geometry::Degrees(120.0));
  // Very fast switching -> large alpha -> frame reduction is nearly free.
  const auto fast = scheme->plan(10, predicted, 60.0, util::BytesPerSec(600e3), util::Seconds(3.0), -1.0);
  // Static gaze -> frame reduction costs full QoE -> full rate retained.
  const auto still = scheme->plan(10, predicted, 0.0, util::BytesPerSec(600e3), util::Seconds(3.0), -1.0);
  if (fast.used_ptile && still.used_ptile) {
    EXPECT_LE(fast.option.fps, still.option.fps);
    EXPECT_DOUBLE_EQ(still.frame_ratio, 1.0);
  }
}

// ----------------------------------------------------------------- Session

SessionConfig fast_config() {
  SessionConfig config;
  return config;
}

TEST(SessionTest, RunsToCompletionAndAccounts) {
  const auto result = simulate_session(football_workload(), 0, SchemeKind::kOurs,
                                       trace2(), fast_config());
  ASSERT_EQ(result.segments.size(), football_workload().segment_count());
  EXPECT_EQ(result.qoe.segments, result.segments.size());

  power::SegmentEnergy total;
  double bytes = 0.0;
  for (const auto& seg : result.segments) {
    total += seg.energy;
    bytes += seg.bytes;
    EXPECT_GT(seg.bytes, 0.0);
    EXPECT_GT(seg.download_s, 0.0);
    EXPECT_GE(seg.coverage, 0.0);
    EXPECT_LE(seg.coverage, 1.0);
    EXPECT_GE(seg.quality, 1);
    EXPECT_LE(seg.quality, 5);
  }
  EXPECT_NEAR(total.total_mj(), result.energy.total_mj(), 1e-6);
  EXPECT_NEAR(bytes, result.total_bytes, 1e-6);
}

TEST(SessionTest, DeterministicForSameInputs) {
  const auto a = simulate_session(football_workload(), 1, SchemeKind::kCtile,
                                  trace2(), fast_config());
  const auto b = simulate_session(football_workload(), 1, SchemeKind::kCtile,
                                  trace2(), fast_config());
  EXPECT_DOUBLE_EQ(a.energy.total_mj(), b.energy.total_mj());
  EXPECT_DOUBLE_EQ(a.qoe.mean_q, b.qoe.mean_q);
  EXPECT_DOUBLE_EQ(a.total_bytes, b.total_bytes);
}

TEST(SessionTest, BufferEvolutionRespectsEq6) {
  const auto result = simulate_session(football_workload(), 0, SchemeKind::kPtile,
                                       trace2(), fast_config());
  const double beta = fast_config().mpc.buffer_threshold_s;
  for (const auto& seg : result.segments) {
    // After the Δt wait, the buffer at request never exceeds β.
    EXPECT_LE(seg.buffer_before_s, beta + 1e-9);
    // Stall accounting matches the definition.
    if (seg.index > 0) {
      EXPECT_NEAR(seg.stall_s,
                  std::max(seg.download_s - seg.buffer_before_s, 0.0), 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(seg.stall_s, 0.0);  // startup excluded
    }
  }
}

TEST(SessionTest, EnergyMatchesTableOneRates) {
  const auto result = simulate_session(football_workload(), 0, SchemeKind::kNontile,
                                       trace2(), fast_config());
  const auto& device = power::device_model(power::Device::kPixel3);
  for (const auto& seg : result.segments) {
    EXPECT_NEAR(seg.energy.transmit_mj, device.transmit_mw * seg.download_s, 1e-6);
    EXPECT_NEAR(seg.energy.decode_mj,
                device.decode_power(power::DecodeProfile::kNontile, seg.fps).value() *
                    1e3,
                1e-6);
  }
}

TEST(SessionTest, DeviceChangesScaleEnergyNotBehaviour) {
  SessionConfig nexus = fast_config();
  nexus.device = power::Device::kNexus5X;
  const auto pixel = simulate_session(football_workload(), 0, SchemeKind::kOurs,
                                      trace2(), fast_config());
  const auto nex = simulate_session(football_workload(), 0, SchemeKind::kOurs,
                                    trace2(), nexus);
  // The Nexus draws more power in every state (Table I).
  EXPECT_GT(nex.energy.total_mj(), pixel.energy.total_mj());
}

TEST(SessionTest, HigherBandwidthRaisesQualityAndQo) {
  const auto poor = simulate_session(football_workload(), 0, SchemeKind::kCtile,
                                     trace2(), fast_config());
  const auto rich = simulate_session(football_workload(), 0, SchemeKind::kCtile,
                                     trace1(), fast_config());
  EXPECT_GE(rich.mean_quality, poor.mean_quality);
  EXPECT_GE(rich.qoe.mean_qo, poor.qoe.mean_qo * 0.95);
  EXPECT_LE(rich.total_stall_s, poor.total_stall_s + 5.0);
}

TEST(SessionTest, OursReducesFrameRateSometimes) {
  const auto result = simulate_session(football_workload(), 0, SchemeKind::kOurs,
                                       trace2(), fast_config());
  std::size_t reduced = 0;
  for (const auto& seg : result.segments) {
    if (seg.fps < 30.0 - 1e-9) ++reduced;
  }
  EXPECT_GT(reduced, result.segments.size() / 10);
  EXPECT_LT(result.mean_fps, 30.0);
  EXPECT_GE(result.mean_fps, 21.0);
}

TEST(SessionTest, PtileUsageIsHighForFocusedVideo) {
  static const VideoWorkload boxing(trace::test_videos()[1], WorkloadConfig{});
  const auto result =
      simulate_session(boxing, 0, SchemeKind::kPtile, trace2(), fast_config());
  // Users were instructed to focus: one Ptile covers almost everyone.
  EXPECT_GT(result.ptile_usage, 0.7);
}

TEST(SessionTest, AllTestUsersAggregationAverages) {
  const auto mean = simulate_all_test_users(football_workload(), SchemeKind::kNontile,
                                            trace2(), fast_config());
  const auto single = simulate_session(football_workload(), 0, SchemeKind::kNontile,
                                       trace2(), fast_config());
  EXPECT_EQ(mean.scheme, SchemeKind::kNontile);
  // The mean lies in a plausible band around a single user's result.
  EXPECT_NEAR(mean.energy.total_mj(), single.energy.total_mj(),
              0.5 * single.energy.total_mj());
  EXPECT_EQ(mean.qoe.segments, 8u * football_workload().segment_count());
}

TEST(SessionTest, AllTestUsersSumsTheCountsAndAveragesTheRest) {
  // A flat 1.5 Mbps link starves whole-frame Nontile, so every user
  // rebuffers and a summed count differs from a mean one.
  const trace::NetworkTrace starved(
      std::vector<trace::ThroughputSample>{{0.0, 1.5}, {400.0, 1.5}});
  const VideoWorkload& workload = football_workload();
  const auto all = simulate_all_test_users(workload, SchemeKind::kNontile,
                                           starved, fast_config());
  const std::size_t users = workload.test_user_count();
  std::size_t rebuffer_events = 0;
  std::size_t segments = 0;
  double energy_mj = 0.0;
  double stall_s = 0.0;
  double mean_q = 0.0;
  for (std::size_t u = 0; u < users; ++u) {
    const auto r = simulate_session(workload, u, SchemeKind::kNontile, starved,
                                    fast_config());
    EXPECT_GT(r.rebuffer_events, 0u) << "user " << u;
    rebuffer_events += r.rebuffer_events;
    segments += r.qoe.segments;
    energy_mj += r.energy.total_mj();
    stall_s += r.total_stall_s;
    mean_q += r.qoe.mean_q;
  }
  const double n = static_cast<double>(users);
  EXPECT_EQ(all.rebuffer_events, rebuffer_events);  // summed
  EXPECT_EQ(all.qoe.segments, segments);            // summed
  EXPECT_NEAR(all.energy.total_mj(), energy_mj / n, 1e-9 * energy_mj);
  EXPECT_NEAR(all.total_stall_s, stall_s / n, 1e-9 * stall_s);
  EXPECT_NEAR(all.qoe.mean_q, mean_q / n, 1e-9 * std::fabs(mean_q));
}

TEST(SessionTest, RejectsBadTestUser) {
  EXPECT_THROW(simulate_session(football_workload(), 99, SchemeKind::kOurs, trace2(),
                                fast_config()),
               std::invalid_argument);
}

// ------------------------------------------------------- Evaluation grid

TEST(ExperimentTest, ResolveThreadCountHonorsEnvOverride) {
  // PS360_THREADS pins the evaluation-grid worker count for reproducible
  // perf runs; invalid or unset values fall back to the request.
  unsetenv("PS360_THREADS");
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_GE(resolve_thread_count(0), 1u);  // hardware concurrency

  setenv("PS360_THREADS", "2", 1);
  EXPECT_EQ(resolve_thread_count(3), 2u);
  EXPECT_EQ(resolve_thread_count(0), 2u);

  setenv("PS360_THREADS", "0", 1);  // invalid: must be positive
  EXPECT_EQ(resolve_thread_count(3), 3u);
  setenv("PS360_THREADS", "not-a-number", 1);
  EXPECT_EQ(resolve_thread_count(3), 3u);
  setenv("PS360_THREADS", "2x", 1);  // trailing garbage
  EXPECT_EQ(resolve_thread_count(3), 3u);
  unsetenv("PS360_THREADS");
}

TEST(ExperimentTest, GridIndexLookupMatchesLinearScan) {
  // at() resolves through the keyed (video, trace, scheme) index; verify it
  // against a hand-built grid, including the missing-cell throw.
  EvaluationGrid grid;
  for (int video = 1; video <= 3; ++video) {
    for (int trace = 1; trace <= 2; ++trace) {
      for (SchemeKind scheme : all_schemes()) {
        EvaluationCell cell;
        cell.video_id = video;
        cell.trace_id = trace;
        cell.scheme = scheme;
        cell.segments = static_cast<std::size_t>(video * 10 + trace);
        grid.cells.push_back(cell);
      }
    }
  }
  const EvaluationCell& cell = grid.at(2, 1, SchemeKind::kPtile);
  EXPECT_EQ(cell.video_id, 2);
  EXPECT_EQ(cell.trace_id, 1);
  EXPECT_EQ(cell.scheme, SchemeKind::kPtile);
  EXPECT_EQ(cell.segments, 21u);
  EXPECT_THROW(grid.at(9, 1, SchemeKind::kPtile), std::invalid_argument);

  // The index refreshes when cells are appended after a lookup.
  EvaluationCell late;
  late.video_id = 9;
  late.trace_id = 1;
  late.scheme = SchemeKind::kPtile;
  late.segments = 91;
  grid.cells.push_back(late);
  EXPECT_EQ(grid.at(9, 1, SchemeKind::kPtile).segments, 91u);
}

}  // namespace
}  // namespace ps360::sim
