// Tests for the sim module: workload precomputation, scheme planning
// behaviour, and the streaming-session mechanics (buffer evolution,
// energy/QoE accounting, determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/competitors.h"
#include "sim/experiment.h"
#include "sim/scheme_base.h"
#include "sim/session.h"
#include "util/worker_pool.h"

#include "ghosh_reference.h"
#include "test_support.h"

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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

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

TEST(WorkloadTest, FtileFirstUseIsThreadSafe) {
  // Parallel tournament cells and pool workers share one workload, so the
  // lazy layout build must be safe to enter from many threads at once (TSan
  // flags the build if it is not); every thread gets the one layout.
  trace::VideoInfo video = trace::test_videos()[5];
  video.duration_s = 8.0;
  const VideoWorkload w(video, WorkloadConfig{});
  std::vector<const ptile::FtileLayout*> first(8, nullptr);
  util::for_each_slot(8, [&](std::size_t i) { first[i] = &w.ftile(i % 4); });
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], &w.ftile(i % 4)) << "slot " << i;
}

// A row's 300 factors: roles 0-6 × quality × frame index, then the Ghosh
// tiles × quality.
std::vector<double> row_values(const SizeNoiseRow& row) {
  using video::FrameRateLadder;
  using video::QualityLadder;
  std::vector<double> values;
  for (int role = 0; role < 7; ++role) {
    for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v) {
      for (std::size_t fi = 1; fi <= FrameRateLadder::kOptions; ++fi)
        values.push_back(row.at(static_cast<NoiseRole>(role), v, fi).factor);
    }
  }
  for (std::size_t tile = 0; tile < SizeNoiseTable::kGhoshTiles; ++tile) {
    for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v)
      values.push_back(row.ghosh_tile(tile, v).factor);
  }
  return values;
}
static_assert(SizeNoiseTable::kRowSize == 7 * 5 * 4 + 32 * 5);

// Segment k's fresh per-key draws, in row_values' order.
std::vector<double> per_key_draws(const VideoWorkload& w, const video::EncodingModel& model,
                                  std::size_t k) {
  using video::FrameRateLadder;
  using video::QualityLadder;
  std::vector<double> values;
  for (int role = 0; role < 7; ++role) {
    for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v) {
      for (std::size_t fi = 1; fi <= FrameRateLadder::kOptions; ++fi) {
        values.push_back(
            model.size_noise(noise_key(w, k, v, fi, static_cast<NoiseRole>(role))).factor);
      }
    }
  }
  for (std::size_t tile = 0; tile < SizeNoiseTable::kGhoshTiles; ++tile) {
    for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v) {
      values.push_back(model
                           .size_noise(noise_key(w, k, v, FrameRateLadder::kOptions,
                                                 NoiseRole::kGhoshTile, tile))
                           .factor);
    }
  }
  return values;
}

TEST(WorkloadTest, SizeNoiseTableMatchesPerKeyDraws) {
  const auto& w = football_workload();
  for (const std::uint64_t seed : {42ULL, 7ULL}) {
    const video::EncodingModel model(seed);
    const SizeNoiseTable& table = w.size_noise_table(model);
    for (std::size_t k = 0; k < w.segment_count(); ++k)
      ASSERT_EQ(row_values(table.row(k)), per_key_draws(w, model, k)) << "segment " << k;
  }
  // σ = 0 draws no noise: every factor is exactly 1.
  video::EncodingConfig flat;
  flat.size_noise_sigma_log = 0.0;
  const SizeNoiseTable& table = w.size_noise_table(video::EncodingModel(42, flat));
  for (std::size_t k = 0; k < w.segment_count(); ++k) {
    for (const double factor : row_values(table.row(k))) ASSERT_EQ(factor, 1.0);
  }
  EXPECT_THROW(table.row(w.segment_count()), std::invalid_argument);
}

// Exposes the table a scheme found at construction.
class NoiseTableProbe : public SchemeBase {
 public:
  using SchemeBase::SchemeBase;
  const SizeNoiseTable* table() const { return noise_; }
  DownloadPlan plan(std::size_t, const geometry::Viewport&, double, util::BytesPerSec,
                    util::Seconds, double) const override {
    return {};
  }
};

TEST(WorkloadTest, SchemesWithEqualSeedAndSigmaShareOneTable) {
  const auto& w = football_workload();
  const qoe::QoModel qo_model(qoe::QoParams{}, 4.0);
  // Two encodings that differ in everything but (seed, σ), and a third
  // with another seed.
  video::EncodingConfig config_b;
  config_b.full_frame_mbps_best = 20.0;
  config_b.framerate_size_exponent = 0.7;
  const video::EncodingModel a(1234), b(1234, config_b), c(1235);
  const SessionConfig session;
  const auto probe = [&](const video::EncodingModel& encoding) {
    return NoiseTableProbe(SchemeKind::kCtile, SchemeEnv{&w, &encoding, &qo_model, &session})
        .table();
  };
  EXPECT_EQ(probe(a), probe(b));
  EXPECT_EQ(probe(a), &w.size_noise_table(a));
  EXPECT_NE(probe(a), probe(c));
  EXPECT_EQ(probe(c), &w.size_noise_table(c));
}

TEST(WorkloadTest, SizeNoiseFirstUseIsThreadSafe) {
  // Fleet solve workers, tournament cells and grid cells plan over one
  // workload, so the first table lookup and the first draw of every row
  // must be safe to enter from many threads at once (TSan flags them if
  // they are not); every thread reads the same tables and factors.
  trace::VideoInfo video = trace::test_videos()[5];
  video.duration_s = 8.0;
  const VideoWorkload w(video, WorkloadConfig{});
  const video::EncodingModel a(11), b(12);
  const auto read_all = [&](const SizeNoiseTable& table, std::vector<double>& out) {
    for (std::size_t k = 0; k < w.segment_count(); ++k) {
      for (const double factor : row_values(table.row(k))) out.push_back(factor);
    }
  };
  struct Seen {
    const SizeNoiseTable* a = nullptr;
    const SizeNoiseTable* b = nullptr;
    std::vector<double> values;
  };
  std::vector<Seen> seen(8);
  util::for_each_slot(8, [&](std::size_t i) {
    // Half the slots look the two seeds up in the other order.
    if (i % 2 == 0) {
      seen[i].a = &w.size_noise_table(a);
      seen[i].b = &w.size_noise_table(b);
    } else {
      seen[i].b = &w.size_noise_table(b);
      seen[i].a = &w.size_noise_table(a);
    }
    read_all(*seen[i].a, seen[i].values);
    read_all(*seen[i].b, seen[i].values);
  });
  const SizeNoiseTable& table_a = w.size_noise_table(a);
  const SizeNoiseTable& table_b = w.size_noise_table(b);
  EXPECT_NE(&table_a, &table_b);
  std::vector<double> want;
  read_all(table_a, want);
  read_all(table_b, want);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].a, &table_a) << "slot " << i;
    EXPECT_EQ(seen[i].b, &table_b) << "slot " << i;
    ASSERT_EQ(seen[i].values.size(), want.size()) << "slot " << i;
    for (std::size_t j = 0; j < want.size(); ++j)
      ASSERT_EQ(bits(seen[i].values[j]), bits(want[j])) << "slot " << i << " entry " << j;
  }
  for (std::size_t k = 0; k < w.segment_count(); ++k) {
    EXPECT_EQ(row_values(table_a.row(k)), per_key_draws(w, a, k)) << "segment " << k;
    EXPECT_EQ(row_values(table_b.row(k)), per_key_draws(w, b, k)) << "segment " << k;
  }
}

// The workload is the one home of the segment length and the FoV, so it
// rejects a segment_seconds that is not finite and > 0, and an fov_deg
// outside (0, 180], itself, by name, before a builder or a segment count
// could blame another value.
TEST(WorkloadTest, ConfigValidation) {
  WorkloadConfig bad;
  bad.n_training_users = 48;  // no test users left
  EXPECT_THROW(VideoWorkload(trace::test_videos()[5], bad), std::invalid_argument);

  trace::VideoInfo video = trace::test_videos()[5];
  video.duration_s = 4.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [&](const WorkloadConfig& config, const std::string& field,
                                   double value) {
    try {
      const VideoWorkload workload(video, config);
      ADD_FAILURE() << "accepted " << field << " = " << value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << field << " = " << value << ": " << e.what();
    }
  };
  for (const double seconds : {kInf, kNaN, 0.0, -1.0}) {
    WorkloadConfig config;
    config.segment_seconds = seconds;
    expect_rejected(config, "WorkloadConfig::segment_seconds", seconds);
  }
  for (const double fov : {kNaN, 0.0, 200.0, -10.0, kInf}) {
    WorkloadConfig config;
    config.fov_deg = fov;
    expect_rejected(config, "WorkloadConfig::fov_deg", fov);
  }
}

// The Ptile builder and the schemes' FoV tiles read one threshold, the
// workload's, which must lie in [0, 1); the workload rejects any other value
// by name.
TEST(WorkloadTest, RejectsATileOverlapThresholdOutsideTheUnitInterval) {
  trace::VideoInfo video = trace::test_videos()[5];
  video.duration_s = 4.0;
  for (const double threshold : {-0.25, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    WorkloadConfig config;
    config.ptile.tile_overlap_threshold = threshold;
    try {
      const VideoWorkload workload(video, config);
      ADD_FAILURE() << "accepted tile_overlap_threshold = " << threshold;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("tile_overlap_threshold"), std::string::npos)
          << e.what();
    }
  }
}

// The users and the segments run on the worker pool; a one-thread budget
// runs them in order on the caller. Both build the same workload, bit for
// bit: every user's samples, every segment's features, training centers
// and Ptiles.
TEST(WorkloadTest, ConstructionIsThreadCountInvariant) {
  trace::VideoInfo video = trace::test_videos()[4];  // three attractors, exploratory
  video.duration_s = 40.0;
  const VideoWorkload serial = [&] {
    const test::ScopedThreadsEnv env("1");
    return VideoWorkload(video, WorkloadConfig{});
  }();
  const test::ScopedThreadsEnv unset(nullptr);
  const VideoWorkload pooled(video, WorkloadConfig{});

  for (std::size_t u = 0; u < WorkloadConfig{}.n_users; ++u) {
    const auto& want = serial.user_trace(u).samples();
    const auto& got = pooled.user_trace(u).samples();
    ASSERT_EQ(got.size(), want.size()) << "user " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(bits(got[i].t), bits(want[i].t)) << "user " << u << " sample " << i;
      ASSERT_EQ(bits(got[i].center.x), bits(want[i].center.x))
          << "user " << u << " sample " << i;
      ASSERT_EQ(bits(got[i].center.y), bits(want[i].center.y))
          << "user " << u << " sample " << i;
    }
  }
  ASSERT_EQ(pooled.segment_count(), serial.segment_count());
  for (std::size_t k = 0; k < pooled.segment_count(); ++k) {
    EXPECT_EQ(bits(pooled.features(k).si), bits(serial.features(k).si)) << "segment " << k;
    EXPECT_EQ(bits(pooled.features(k).ti), bits(serial.features(k).ti)) << "segment " << k;
    const auto& got_centers = pooled.training_centers(k);
    const auto& want_centers = serial.training_centers(k);
    ASSERT_EQ(got_centers.size(), want_centers.size()) << "segment " << k;
    for (std::size_t u = 0; u < got_centers.size(); ++u) {
      EXPECT_EQ(bits(got_centers[u].x), bits(want_centers[u].x)) << "segment " << k;
      EXPECT_EQ(bits(got_centers[u].y), bits(want_centers[u].y)) << "segment " << k;
    }
    const ptile::SegmentPtiles& got = pooled.ptiles(k);
    const ptile::SegmentPtiles& want = serial.ptiles(k);
    ASSERT_EQ(got.ptiles.size(), want.ptiles.size()) << "segment " << k;
    EXPECT_EQ(got.uncovered_users, want.uncovered_users) << "segment " << k;
    for (std::size_t i = 0; i < got.ptiles.size(); ++i) {
      const ptile::Ptile& g = got.ptiles[i];
      const ptile::Ptile& w = want.ptiles[i];
      EXPECT_EQ(g.rect.row_lo, w.rect.row_lo) << "segment " << k;
      EXPECT_EQ(g.rect.row_count, w.rect.row_count) << "segment " << k;
      EXPECT_EQ(g.rect.col_lo, w.rect.col_lo) << "segment " << k;
      EXPECT_EQ(g.rect.col_count, w.rect.col_count) << "segment " << k;
      EXPECT_EQ(bits(g.area.lon.lo), bits(w.area.lon.lo)) << "segment " << k;
      EXPECT_EQ(bits(g.area.lon.width), bits(w.area.lon.width)) << "segment " << k;
      EXPECT_EQ(bits(g.area.y_lo), bits(w.area.y_lo)) << "segment " << k;
      EXPECT_EQ(bits(g.area.y_hi), bits(w.area.y_hi)) << "segment " << k;
      EXPECT_EQ(g.users, w.users) << "segment " << k;
    }
  }
}

// The Ptiles of one segment, compared bit for bit.
bool same_ptiles(const ptile::SegmentPtiles& a, const ptile::SegmentPtiles& b) {
  if (a.ptiles.size() != b.ptiles.size() || a.uncovered_users != b.uncovered_users)
    return false;
  for (std::size_t i = 0; i < a.ptiles.size(); ++i) {
    const geometry::EquirectRect& x = a.ptiles[i].area;
    const geometry::EquirectRect& y = b.ptiles[i].area;
    if (a.ptiles[i].users != b.ptiles[i].users || bits(x.lon.lo) != bits(y.lon.lo) ||
        bits(x.lon.width) != bits(y.lon.width) || bits(x.y_lo) != bits(y.y_lo) ||
        bits(x.y_hi) != bits(y.y_hi))
      return false;
  }
  return true;
}

// WorkloadConfig::fov_deg sizes the Ptile members as well as the viewports:
// a 60° workload builds, segment by segment, what a standalone 60°
// PtileBuilder builds from the same training centers, and on some segment
// that is not what a 100° builder builds.
TEST(WorkloadTest, FovSizesThePtileMembers) {
  trace::VideoInfo video = trace::test_videos()[1];
  video.duration_s = 10.0;
  WorkloadConfig config;
  config.fov_deg = 60.0;
  const VideoWorkload w(video, config);
  const ptile::PtileBuilder narrow(geometry::Degrees(60.0), config.ptile);
  const ptile::PtileBuilder wide(geometry::Degrees(100.0), config.ptile);
  std::size_t differs_from_wide = 0;
  for (std::size_t k = 0; k < w.segment_count(); ++k) {
    const ptile::SegmentPtiles want = narrow.build(w.training_centers(k));
    EXPECT_TRUE(same_ptiles(w.ptiles(k), want)) << "segment " << k;
    if (!same_ptiles(wide.build(w.training_centers(k)), want)) ++differs_from_wide;
  }
  EXPECT_GT(differs_from_wide, 0u);
}

// A video duration no segment or head-sample count can come from (+inf,
// NaN, one whose count overflows std::size_t) is rejected by name, never
// cast to a count.
TEST(WorkloadTest, RejectsNonFiniteVideoDuration) {
  for (const double duration : {std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    trace::VideoInfo video = trace::test_videos()[5];
    video.duration_s = duration;
    try {
      VideoWorkload workload(video, WorkloadConfig{});
      ADD_FAILURE() << "accepted duration_s = " << duration;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("duration_s must be finite"), std::string::npos)
          << e.what();
    }
  }
}

// ----------------------------------------------------------------- Schemes

struct PlannerFixture {
  PlannerFixture() {
    session.ptile_min_coverage = 0.9;  // the coverage floor these tests were written for
    env.workload = &football_workload();
    env.encoding = &encoding;
    env.qo_model = &qo_model;
    env.session = &session;
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

  video::EncodingModel encoding{42};
  qoe::QoModel qo_model{qoe::QoParams{}, 4.0};
  SessionConfig session;
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

// The per-option reference for the MPC schemes' plan() (Ftile, Ctile,
// Nontile, Pano, Ptile and Ours): every (segment, quality, frame) option
// makes one bytes()
// call, which draws its own size noise (EncodingModel::size_noise(
// noise_key(...))) and, for Ftile, selects the FoV tiles against its
// segment's layout; and one Eq. 3/4 predicted Qo, times Pano's perceptual
// weight. The schemes evaluate each of these terms once per segment,
// (segment, quality) or (segment, frame) instead; the tests below pin them
// to this reference bit for bit.
class PerOptionReference : public Scheme {
 public:
  PerOptionReference(SchemeKind kind, const SchemeEnv& env)
      : Scheme(kind),
        env_(env),
        ladder_(env.workload->video().fps),
        qoe_(util::Seconds(env.workload->config().segment_seconds), env.session->mpc,
             power::device_model(env.session->device), core::MpcObjective::kMaxQoE),
        energy_(util::Seconds(env.workload->config().segment_seconds), env.session->mpc,
                power::device_model(env.session->device),
                core::MpcObjective::kMinEnergyQoEConstrained) {}


  DownloadPlan plan(std::size_t k, const geometry::Viewport& predicted,
                    double predicted_sfov, util::BytesPerSec bandwidth,
                    util::Seconds buffer, double prev_qo) const override {
    const Inputs in{k, predicted, predicted_sfov, bandwidth, buffer, prev_qo};
    switch (kind()) {
      case SchemeKind::kFtile:
        return ftile(in);
      case SchemeKind::kCtile:
        return ctile(in, /*frame_options=*/false, /*perceptual=*/false);
      case SchemeKind::kNontile:
        return nontile(in);
      case SchemeKind::kPano:
        return ctile(in, /*frame_options=*/true, /*perceptual=*/true);
      case SchemeKind::kPtile:
      case SchemeKind::kOurs:
        return ptile(in, kind() == SchemeKind::kOurs);
      default:
        throw std::invalid_argument("no per-option reference for this scheme");
    }
  }

  double coverage(const DownloadPlan&, const geometry::Viewport&) const override {
    return 0.0;
  }

 private:
  using OptionBytesFn =
      std::function<double(std::size_t segment, int quality, std::size_t frame_index,
                           double frame_ratio)>;

  struct Inputs {
    std::size_t k;
    const geometry::Viewport& predicted;
    double sfov;
    util::BytesPerSec bandwidth;
    util::Seconds buffer;
    double prev_qo;
  };

  video::SizeNoise draw(std::size_t segment, int quality, std::size_t frame_index,
                        NoiseRole role) const {
    return env_.encoding->size_noise(
        noise_key(*env_.workload, segment, quality, frame_index, role));
  }

  double predicted_qo(std::size_t segment, int quality, double frame_ratio,
                      double sfov, bool perceptual) const {
    const auto& feat = env_.workload->features(segment);
    const double b = env_.encoding->fov_bitrate_mbps(quality, feat);
    double qo = env_.qo_model->qo(feat.si, feat.ti, util::Mbps(b));
    if (frame_ratio < 1.0) {
      const double alpha = qoe::QoModel::alpha(util::DegPerSec(sfov), feat.ti);
      qo = qo * qoe::QoModel::frame_rate_factor(alpha, frame_ratio);
    }
    if (!perceptual) return qo;
    return qo * qoe::QoModel::perceptual_sensitivity(util::DegPerSec(sfov), feat.si,
                                                     feat.ti);
  }

  DownloadPlan solve(const core::MpcController& controller, const Inputs& in,
                     const OptionBytesFn& bytes, bool frame_options, bool perceptual,
                     power::DecodeProfile profile) const {
    const std::size_t end =
        std::min(in.k + env_.session->mpc_horizon, env_.workload->segment_count());
    std::vector<core::SegmentChoices> horizon;
    for (std::size_t i = in.k; i < end; ++i) {
      core::SegmentChoices choices;
      const std::size_t first_frame =
          frame_options ? 1 : video::FrameRateLadder::kOptions;
      for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
           ++v) {
        for (std::size_t fi = first_frame; fi <= video::FrameRateLadder::kOptions; ++fi) {
          core::QualityOption option;
          option.quality = v;
          option.frame_index = fi;
          const double ratio = ladder_.ratio(fi);
          option.fps = ladder_.fps(fi);
          option.bytes = bytes(i, v, fi, ratio);
          option.qo = predicted_qo(i, v, ratio, in.sfov, perceptual);
          option.profile = profile;
          choices.options.push_back(option);
        }
      }
      horizon.push_back(std::move(choices));
    }
    const core::MpcDecision decision =
        controller.decide(horizon, in.bandwidth, in.buffer, in.prev_qo);
    DownloadPlan plan;
    plan.option = decision.choice;
    plan.frame_ratio = ladder_.ratio(decision.choice.frame_index);
    plan.mpc_feasible = decision.feasible;
    return plan;
  }

  DownloadPlan ctile(const Inputs& in, bool frame_options, bool perceptual) const {
    const auto& workload = *env_.workload;
    const auto rect = grid_.covering_rect(
        in.predicted.area(), workload.config().ptile.tile_overlap_threshold);
    const geometry::EquirectRect hq = grid_.rect_area(rect);
    const double hq_area = hq.area_fraction();
    const std::size_t n_hq = rect.tile_count();
    const std::size_t n_bg = grid_.tile_count() - n_hq;
    const double bg_area = std::max(1.0 - hq_area, 0.0);
    const double L = workload.config().segment_seconds;
    const OptionBytesFn bytes = [&](std::size_t i, int v, std::size_t fi, double ratio) {
      double total = env_.encoding->region_bytes(hq_area, n_hq, v, workload.features(i), L,
                                                 ratio, draw(i, v, fi, NoiseRole::kCtileHq));
      if (n_bg > 0 && bg_area > 0.0) {
        total += env_.encoding->region_bytes(bg_area, n_bg, 1, workload.features(i), L, 1.0,
                                             draw(i, 1, fi, NoiseRole::kCtileBackground));
      }
      return total;
    };
    DownloadPlan plan = solve(qoe_, in, bytes, frame_options, perceptual,
                              power::DecodeProfile::kCtile);
    plan.hq_region = hq;
    return plan;
  }

  DownloadPlan nontile(const Inputs& in) const {
    const auto& workload = *env_.workload;
    const double L = workload.config().segment_seconds;
    const OptionBytesFn bytes = [&](std::size_t i, int v, std::size_t fi, double ratio) {
      return env_.encoding->region_bytes(1.0, 1, v, workload.features(i), L, ratio,
                                         draw(i, v, fi, NoiseRole::kNontile));
    };
    DownloadPlan plan = solve(qoe_, in, bytes, /*frame_options=*/false,
                              /*perceptual=*/false, power::DecodeProfile::kNontile);
    plan.hq_region = geometry::EquirectRect::make(
        geometry::LonInterval::make(geometry::Degrees(0.0), geometry::Degrees(360.0)),
        geometry::Degrees(0.0), geometry::Degrees(180.0));
    return plan;
  }

  DownloadPlan ftile(const Inputs& in) const {
    const auto& workload = *env_.workload;
    const double L = workload.config().segment_seconds;
    const OptionBytesFn bytes = [&](std::size_t i, int v, std::size_t fi, double) {
      const auto& layout = workload.ftile(i);
      const auto selected = layout.tiles_overlapping(in.predicted);
      std::vector<double> hq_areas, bg_areas;
      for (std::size_t t = 0; t < layout.tile_count(); ++t) {
        const bool is_hq =
            std::find(selected.begin(), selected.end(), t) != selected.end();
        (is_hq ? hq_areas : bg_areas).push_back(layout.tile_areas()[t]);
      }
      double total = 0.0;
      if (!hq_areas.empty()) {
        total += env_.encoding->tiled_bytes(hq_areas, v, workload.features(i), L, 1.0,
                                            draw(i, v, fi, NoiseRole::kFtileHq));
      }
      if (!bg_areas.empty()) {
        total += env_.encoding->tiled_bytes(bg_areas, 1, workload.features(i), L, 1.0,
                                            draw(i, 1, fi, NoiseRole::kFtileBackground));
      }
      return total;
    };
    DownloadPlan plan = solve(qoe_, in, bytes, /*frame_options=*/false,
                              /*perceptual=*/false, power::DecodeProfile::kFtile);
    plan.ftile_layout = &workload.ftile(in.k);
    plan.ftile_tiles = plan.ftile_layout->tiles_overlapping(in.predicted);
    return plan;
  }

  DownloadPlan ptile(const Inputs& in, bool frame_adaptation) const {
    const auto& workload = *env_.workload;
    const ptile::Ptile* ptile =
        workload.ptiles(in.k).covering(in.predicted, env_.session->ptile_min_coverage);
    if (ptile == nullptr) return ctile(in, /*frame_options=*/false, /*perceptual=*/false);
    const double L = workload.config().segment_seconds;
    const double ptile_area = ptile->area.area_fraction();
    const std::vector<double> bg_areas = ptile::background_block_areas(*ptile);
    const OptionBytesFn bytes = [&](std::size_t i, int v, std::size_t fi, double ratio) {
      double total = env_.encoding->region_bytes(ptile_area, 1, v, workload.features(i), L,
                                                 ratio, draw(i, v, fi, NoiseRole::kPtile));
      if (!bg_areas.empty()) {
        total += env_.encoding->tiled_bytes(bg_areas, 1, workload.features(i), L, 1.0,
                                            draw(i, 1, fi, NoiseRole::kPtileBackground));
      }
      return total;
    };
    DownloadPlan plan = solve(energy_, in, bytes, frame_adaptation, /*perceptual=*/false,
                              power::DecodeProfile::kPtile);
    plan.used_ptile = true;
    plan.hq_region = ptile->area;
    return plan;
  }

  const SchemeEnv env_;
  const geometry::TileGrid grid_{4, 8};
  const video::FrameRateLadder ladder_;
  core::MpcController qoe_;
  core::MpcController energy_;
};

// Every field a plan carries, compared bit for bit.
void expect_same_plan(const DownloadPlan& got, const DownloadPlan& want,
                      const std::string& where) {
  ASSERT_EQ(got.option.quality, want.option.quality) << where;
  ASSERT_EQ(got.option.frame_index, want.option.frame_index) << where;
  ASSERT_EQ(bits(got.option.fps), bits(want.option.fps)) << where;
  ASSERT_EQ(bits(got.option.bytes), bits(want.option.bytes)) << where;
  ASSERT_EQ(bits(got.option.qo), bits(want.option.qo)) << where;
  ASSERT_EQ(got.option.profile, want.option.profile) << where;
  ASSERT_EQ(bits(got.frame_ratio), bits(want.frame_ratio)) << where;
  ASSERT_EQ(got.used_ptile, want.used_ptile) << where;
  ASSERT_EQ(got.mpc_feasible, want.mpc_feasible) << where;
  ASSERT_EQ(bits(got.hq_region.lon.lo), bits(want.hq_region.lon.lo)) << where;
  ASSERT_EQ(bits(got.hq_region.lon.width), bits(want.hq_region.lon.width)) << where;
  ASSERT_EQ(bits(got.hq_region.y_lo), bits(want.hq_region.y_lo)) << where;
  ASSERT_EQ(bits(got.hq_region.y_hi), bits(want.hq_region.y_hi)) << where;
  ASSERT_EQ(got.ftile_layout, want.ftile_layout) << where;
  ASSERT_EQ(got.ftile_tiles, want.ftile_tiles) << where;
}

TEST(SchemeTest, FtilePlanMatchesPerOptionReference) {
  const PlannerFixture fixture;
  const auto& workload = football_workload();
  const auto scheme = make_scheme(SchemeKind::kFtile, fixture.env);
  const PerOptionReference reference(SchemeKind::kFtile, fixture.env);
  const std::size_t n = workload.segment_count();
  // Every 7th segment plus the last few, whose horizons are clipped.
  std::vector<std::size_t> segments;
  for (std::size_t k = 0; k < n; k += 7) segments.push_back(k);
  for (std::size_t k = n - 4; k < n; ++k) segments.push_back(k);
  for (const std::size_t k : segments) {
    const auto& trace = workload.test_trace(k % workload.test_user_count());
    const double fov = 100.0 + static_cast<double>(k % 3) * 10.0;
    const geometry::Viewport predicted(trace.center_at(static_cast<double>(k)),
                                       geometry::Degrees(fov), geometry::Degrees(100.0));
    const util::Seconds buffer(k % 2 == 0 ? 0.5 : 3.0);
    for (const double bandwidth : {150e3, 600e3, 3e6}) {
      const util::BytesPerSec rate(bandwidth);
      const DownloadPlan got = scheme->plan(k, predicted, 12.0, rate, buffer, 40.0);
      const DownloadPlan want = reference.plan(k, predicted, 12.0, rate, buffer, 40.0);
      expect_same_plan(got, want, "segment " + std::to_string(k));
    }
  }
}

// Ours and Ptile (Ptile plus background blocks, with and without the
// frame-rate ladder, and the Ctile fallback when no Ptile covers the
// prediction), Ctile and Nontile (the QoE objective at the original frame
// rate) and Pano (the perceptual weight over the full ladder on Ctile's
// tiles) against the per-option reference, over segments, predicted
// viewports (a training user's and one off to the side), switching speeds,
// bandwidths, buffer levels and previous Qo values.
void expect_plans_match_reference(SchemeKind kind) {
  const PlannerFixture fixture;
  const auto& workload = football_workload();
  const auto scheme = make_scheme(kind, fixture.env);
  const PerOptionReference reference(kind, fixture.env);
  const std::size_t n = workload.segment_count();
  std::vector<std::size_t> segments;
  for (std::size_t k = 0; k < n; k += 6) segments.push_back(k);
  for (std::size_t k = n - 4; k < n; ++k) segments.push_back(k);
  std::size_t used_ptile = 0;
  std::size_t plans = 0;
  for (const std::size_t k : segments) {
    const auto& trace = workload.test_trace(k % workload.test_user_count());
    const geometry::EquirectPoint center = trace.center_at(static_cast<double>(k));
    const geometry::Viewport on_view(center, geometry::Degrees(110.0),
                                     geometry::Degrees(100.0));
    const geometry::Viewport aside(
        geometry::EquirectPoint::make(geometry::Degrees(center.lon().value() + 150.0),
                                      geometry::Degrees(60.0)),
        geometry::Degrees(100.0), geometry::Degrees(100.0));
    for (const geometry::Viewport* predicted : {&on_view, &aside}) {
      for (const double sfov : {0.0, 8.0, 45.0}) {
        for (const double bandwidth : {150e3, 600e3, 3e6}) {
          for (const auto& [buffer, prev_qo] :
               {std::pair{0.5, -1.0}, std::pair{3.0, 55.0}}) {
            const util::BytesPerSec rate(bandwidth);
            const util::Seconds level(buffer);
            const DownloadPlan got =
                scheme->plan(k, *predicted, sfov, rate, level, prev_qo);
            const DownloadPlan want =
                reference.plan(k, *predicted, sfov, rate, level, prev_qo);
            expect_same_plan(got, want,
                             scheme_name(kind) + " segment " + std::to_string(k) +
                                 " sfov " + std::to_string(sfov) + " bandwidth " +
                                 std::to_string(bandwidth));
            if (::testing::Test::HasFatalFailure()) return;
            used_ptile += got.used_ptile ? 1 : 0;
            ++plans;
          }
        }
      }
    }
  }
  if (kind == SchemeKind::kOurs || kind == SchemeKind::kPtile) {
    // Both of the scheme's paths ran: a covering Ptile and the Ctile
    // fallback.
    EXPECT_GT(used_ptile, 0u);
    EXPECT_LT(used_ptile, plans);
  }
}

TEST(SchemeTest, OursPlanMatchesPerOptionReference) {
  expect_plans_match_reference(SchemeKind::kOurs);
}

TEST(SchemeTest, PanoPlanMatchesPerOptionReference) {
  expect_plans_match_reference(SchemeKind::kPano);
}

TEST(SchemeTest, CtilePlanMatchesPerOptionReference) {
  expect_plans_match_reference(SchemeKind::kCtile);
}

TEST(SchemeTest, NontilePlanMatchesPerOptionReference) {
  expect_plans_match_reference(SchemeKind::kNontile);
}

TEST(SchemeTest, PtilePlanMatchesPerOptionReference) {
  expect_plans_match_reference(SchemeKind::kPtile);
}

// GhoshLP's and GhoshRobust's plan as it was before each term was computed
// once: a candidate list, per candidate a nested cost ladder of region_bytes
// calls that each rebuild the tile's rect and draw the tile's own size noise
// (EncodingModel::size_noise(noise_key(..., kGhoshTile, tile id))), a
// per-candidate copy of the utility ladder, the per-tile visibility loop
// and the rescanning greedy (tests/ghosh_reference.h).
DownloadPlan ghosh_per_tile_reference(const SchemeEnv& env, bool robust, std::size_t k,
                                      const geometry::Viewport& predicted,
                                      double predicted_sfov, util::BytesPerSec bandwidth,
                                      util::Seconds buffer) {
  using geometry::EquirectRect;
  using geometry::TileIndex;
  using video::QualityLadder;
  const geometry::TileGrid grid(4, 8);
  const auto& feat = env.workload->features(k);
  const double L = env.workload->config().segment_seconds;
  const auto tile_id = [&](const TileIndex& t) { return t.row * grid.cols() + t.col; };
  const auto tile_level_bytes = [&](const TileIndex& t, int quality) {
    return env.encoding->region_bytes(
        grid.tile_area(t).area_fraction(), 1, quality, feat, L, 1.0,
        env.encoding->size_noise(noise_key(*env.workload, k, quality,
                                           video::FrameRateLadder::kOptions,
                                           NoiseRole::kGhoshTile, tile_id(t))));
  };

  std::vector<TileIndex> candidates;
  std::vector<double> weights;
  if (robust) {
    const std::vector<double> visibility = reference::tile_visibility(
        grid, predicted.center(), predicted.fov_h(), predicted.fov_v(),
        util::DegPerSec(predicted_sfov), util::Seconds(std::max(buffer.value(), 0.0)));
    for (std::size_t row = 0; row < grid.rows(); ++row) {
      for (std::size_t col = 0; col < grid.cols(); ++col) {
        const double p = visibility[row * grid.cols() + col];
        if (p < 0.05) continue;
        candidates.push_back({row, col});
        weights.push_back(p);
      }
    }
  }
  if (candidates.empty()) {
    const auto rect = grid.covering_rect(
        predicted.area(), env.workload->config().ptile.tile_overlap_threshold);
    candidates = grid.tiles_in(rect);
    weights.assign(candidates.size(), 1.0);
  }

  std::vector<char> is_candidate(grid.tile_count(), 0);
  for (const TileIndex& t : candidates) is_candidate[tile_id(t)] = 1;
  double bg_bytes = 0.0;
  for (std::size_t id = 0; id < grid.tile_count(); ++id) {
    if (is_candidate[id]) continue;
    bg_bytes += tile_level_bytes({id / grid.cols(), id % grid.cols()}, QualityLadder::kMinLevel);
  }
  const double total_budget = bandwidth.value() * L;
  const double budget = std::max(total_budget - bg_bytes, 0.0);

  std::vector<std::vector<double>> tile_bytes(candidates.size());
  std::vector<std::vector<double>> tile_utility(candidates.size());
  std::vector<double> level_utility;
  for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v) {
    level_utility.push_back(env.qo_model->qo(
        feat.si, feat.ti, util::Mbps(env.encoding->fov_bitrate_mbps(v, feat))));
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v)
      tile_bytes[i].push_back(tile_level_bytes(candidates[i], v));
    tile_utility[i] = level_utility;
  }
  const LpAllocation alloc =
      reference::lp_allocate(weights, tile_bytes, tile_utility, util::Bytes(budget));

  double level_sum = 0.0;
  double weight_sum = 0.0;
  bool any_upgraded = false;
  EquirectRect hq;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    level_sum += weights[i] * (alloc.level[i] + QualityLadder::kMinLevel);
    weight_sum += weights[i];
    if (alloc.level[i] > 0) {
      const EquirectRect area = grid.tile_area(candidates[i]);
      hq = any_upgraded ? hq.united(area) : area;
      any_upgraded = true;
    }
  }
  const int quality = std::clamp(
      static_cast<int>(std::floor(level_sum / std::max(weight_sum, 1e-12) + 0.5)),
      QualityLadder::kMinLevel, QualityLadder::kMaxLevel);
  if (!any_upgraded) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const EquirectRect area = grid.tile_area(candidates[i]);
      hq = i == 0 ? area : hq.united(area);
    }
  }

  const video::FrameRateLadder ladder(env.workload->video().fps);
  DownloadPlan plan;
  plan.option.quality = quality;
  plan.option.frame_index = video::FrameRateLadder::kOptions;
  plan.option.fps = ladder.fps(video::FrameRateLadder::kOptions);
  plan.option.bytes = bg_bytes + alloc.spent;
  plan.option.qo = level_utility[static_cast<std::size_t>(quality - QualityLadder::kMinLevel)];
  plan.option.profile = power::DecodeProfile::kCtile;
  plan.frame_ratio = 1.0;
  plan.mpc_feasible = alloc.feasible && bg_bytes <= total_budget;
  plan.hq_region = hq;
  return plan;
}

// GhoshLP and GhoshRobust against the per-tile reference, over segments,
// predicted viewports (a test user's, one off to the side and one at a
// pole, wrapping the seam), switching speeds, bandwidths from a floor that
// does not fit to one that upgrades every tile, and buffer levels (the
// robust variant's lookahead).
void expect_ghosh_plans_match_reference(SchemeKind kind) {
  const PlannerFixture fixture;
  const auto& workload = football_workload();
  const auto scheme = make_scheme(kind, fixture.env);
  const bool robust = kind == SchemeKind::kGhoshRobust;
  const std::size_t n = workload.segment_count();
  std::vector<std::size_t> segments;
  for (std::size_t k = 0; k < n; k += 6) segments.push_back(k);
  for (std::size_t k = n - 2; k < n; ++k) segments.push_back(k);
  std::size_t infeasible = 0, upgraded = 0, plans = 0;
  for (const std::size_t k : segments) {
    const auto& trace = workload.test_trace(k % workload.test_user_count());
    const geometry::EquirectPoint center = trace.center_at(static_cast<double>(k));
    const geometry::Viewport on_view(center, geometry::Degrees(110.0),
                                     geometry::Degrees(100.0));
    const geometry::Viewport aside(
        geometry::EquirectPoint::make(geometry::Degrees(center.lon().value() + 150.0),
                                      geometry::Degrees(60.0)),
        geometry::Degrees(100.0), geometry::Degrees(100.0));
    const geometry::Viewport pole(
        geometry::EquirectPoint::make(geometry::Degrees(359.0), geometry::Degrees(178.0)),
        geometry::Degrees(100.0), geometry::Degrees(90.0));
    for (const geometry::Viewport* predicted : {&on_view, &aside, &pole}) {
      for (const double sfov : {0.0, 8.0, 45.0, 400.0}) {
        for (const double bandwidth : {1e4, 150e3, 600e3, 3e6, 5e7}) {
          for (const double buffer : {0.0, 0.5, 3.0, 30.0}) {
            const util::BytesPerSec rate(bandwidth);
            const util::Seconds level(buffer);
            const DownloadPlan got = scheme->plan(k, *predicted, sfov, rate, level, 50.0);
            const DownloadPlan want = ghosh_per_tile_reference(fixture.env, robust, k,
                                                               *predicted, sfov, rate, level);
            expect_same_plan(got, want,
                             scheme_name(kind) + " segment " + std::to_string(k) +
                                 " sfov " + std::to_string(sfov) + " bandwidth " +
                                 std::to_string(bandwidth) + " buffer " +
                                 std::to_string(buffer));
            if (::testing::Test::HasFatalFailure()) return;
            infeasible += got.mpc_feasible ? 0 : 1;
            upgraded += got.option.quality > video::QualityLadder::kMinLevel ? 1 : 0;
            ++plans;
          }
        }
      }
    }
  }
  // Both an unaffordable floor and upgraded tiles were reached.
  EXPECT_GT(infeasible, 0u);
  EXPECT_GT(upgraded, 0u);
  EXPECT_LT(upgraded, plans);
}

TEST(SchemeTest, GhoshLPPlanMatchesPerTileReference) {
  expect_ghosh_plans_match_reference(SchemeKind::kGhoshLp);
}

TEST(SchemeTest, GhoshRobustPlanMatchesPerTileReference) {
  expect_ghosh_plans_match_reference(SchemeKind::kGhoshRobust);
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

TEST(SessionTest, RejectsAnInitialBandwidthThatOverflowsEveryDownload) {
  // Finite and > 0, so the config passes validation, but every download time
  // of the first plan overflows: the MPC rejects it naming the bandwidth.
  SessionConfig config = fast_config();
  config.initial_bandwidth_bytes_per_s = 1e-310;
  try {
    (void)simulate_session(football_workload(), 0, SchemeKind::kOurs, trace2(), config);
    ADD_FAILURE() << "accepted 1e-310 B/s";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bandwidth 1e-310"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------------- Evaluation grid

TEST(ExperimentTest, GridIndexLookupMatchesLinearScan) {
  // at() finds the (video, trace, scheme) cell; verify it against a
  // hand-built grid, including the missing-cell throw.
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

  // Cells appended after a lookup are found.
  EvaluationCell late;
  late.video_id = 9;
  late.trace_id = 1;
  late.scheme = SchemeKind::kPtile;
  late.segments = 91;
  grid.cells.push_back(late);
  EXPECT_EQ(grid.at(9, 1, SchemeKind::kPtile).segments, 91u);
}

TEST(ExperimentTest, AtSeesCellsEditedInPlace) {
  // cells is a public vector, so a cell may be re-keyed in place after a
  // lookup; the next lookup must see the edit. A duplicate key resolves to
  // the first cell.
  EvaluationGrid grid;
  for (int video = 1; video <= 3; ++video) {
    EvaluationCell cell;
    cell.video_id = video;
    cell.trace_id = 1;
    cell.scheme = SchemeKind::kOurs;
    cell.segments = static_cast<std::size_t>(video);
    grid.cells.push_back(cell);
  }
  EXPECT_EQ(grid.at(2, 1, SchemeKind::kOurs).segments, 2u);
  grid.cells[1].video_id = 4;
  EXPECT_THROW(grid.at(2, 1, SchemeKind::kOurs), std::invalid_argument);
  EXPECT_EQ(grid.at(4, 1, SchemeKind::kOurs).segments, 2u);
  grid.cells[2].video_id = 4;
  EXPECT_EQ(grid.at(4, 1, SchemeKind::kOurs).segments, 2u);
}

}  // namespace
}  // namespace ps360::sim
