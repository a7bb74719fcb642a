// Robustness and failure-injection tests: the pipeline must degrade
// gracefully — not crash, not violate invariants — under bandwidth
// collapse, degenerate viewing behaviour, tiny videos, and across random
// seeds. Also covers the alternative predictor/bandwidth configurations
// end-to-end.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim/experiment.h"
#include "sim/session.h"

#include "test_support.h"

namespace ps360::sim {
namespace {

// A 30-second synthetic video keeps these sessions fast.
trace::VideoInfo tiny_video() {
  trace::VideoInfo video = trace::test_videos()[5];
  video.duration_s = 30.0;
  return video;
}

const VideoWorkload& tiny_workload() {
  static const VideoWorkload workload(tiny_video(), WorkloadConfig{});
  return workload;
}

// ---------------------------------------------------- Network failure modes

TEST(FailureInjectionTest, BandwidthCliffSurvivesAndRebuffers) {
  // 8 Mbps for 10 s, then a collapse to 0.25 Mbps: every scheme must finish
  // the session; the tile schemes must register stalls and drop quality.
  // The slow region must outlast the (stall-stretched) session: network
  // traces loop past their end, and a short trace would wrap back to 8 Mbps.
  std::vector<trace::ThroughputSample> samples;
  for (int t = 0; t < 10; ++t) samples.push_back({static_cast<double>(t), 8.0});
  for (int t = 10; t < 2000; t += 10)
    samples.push_back({static_cast<double>(t), 0.25});
  const trace::NetworkTrace cliff(std::move(samples));

  for (SchemeKind scheme : all_schemes()) {
    const auto result =
        simulate_session(tiny_workload(), 0, scheme, cliff, SessionConfig{});
    ASSERT_EQ(result.segments.size(), tiny_workload().segment_count())
        << scheme_name(scheme);
    // After the collapse everyone must retreat toward the quality floor.
    double late_quality = 0.0;
    int late = 0;
    for (const auto& seg : result.segments) {
      if (seg.index >= 20) {
        late_quality += seg.quality;
        ++late;
      }
    }
    EXPECT_LT(late_quality / late, 2.5) << scheme_name(scheme);
    // And the session must have noticed the cliff.
    EXPECT_GT(result.total_stall_s, 0.0) << scheme_name(scheme);
  }
}

TEST(FailureInjectionTest, ConstantTrickleNeverDivides) {
  // A pathologically slow but constant link: sessions complete, stalls are
  // large but finite, energy stays finite.
  const trace::NetworkTrace trickle({{0.0, 0.2}, {1.0, 0.2}});
  const auto result = simulate_session(tiny_workload(), 0, SchemeKind::kOurs,
                                       trickle, SessionConfig{});
  EXPECT_TRUE(std::isfinite(result.energy.total_mj()));
  EXPECT_TRUE(std::isfinite(result.qoe.mean_q));
  EXPECT_GT(result.total_stall_s, 0.0);
  // MPC must have hit its infeasible fallback at least once.
  bool any_infeasible = false;
  for (const auto& seg : result.segments) any_infeasible |= !seg.mpc_feasible;
  EXPECT_TRUE(any_infeasible);
}

TEST(FailureInjectionTest, AbsurdlyFastLinkSaturatesQuality) {
  const trace::NetworkTrace fast({{0.0, 1000.0}, {1.0, 1000.0}});
  const auto result = simulate_session(tiny_workload(), 0, SchemeKind::kCtile,
                                       fast, SessionConfig{});
  // Everything after the cold-start segment (conservative bandwidth prior)
  // runs at the top of the ladder.
  for (const auto& seg : result.segments) {
    if (seg.index >= 2) {
      EXPECT_EQ(seg.quality, 5) << "segment " << seg.index;
    }
  }
  EXPECT_DOUBLE_EQ(result.total_stall_s, 0.0);
}

// ------------------------------------------------------ Degenerate content

TEST(DegenerateTest, OneSegmentVideo) {
  trace::VideoInfo video = tiny_video();
  video.duration_s = 1.0;
  const VideoWorkload workload(video, WorkloadConfig{});
  EXPECT_EQ(workload.segment_count(), 1u);
  const trace::NetworkTrace net({{0.0, 4.0}, {1.0, 4.0}});
  for (SchemeKind scheme : all_schemes()) {
    const auto result = simulate_session(workload, 0, scheme, net, SessionConfig{});
    EXPECT_EQ(result.segments.size(), 1u) << scheme_name(scheme);
    EXPECT_DOUBLE_EQ(result.segments[0].stall_s, 0.0);  // startup excluded
  }
}

TEST(DegenerateTest, FractionalLastSegment) {
  trace::VideoInfo video = tiny_video();
  video.duration_s = 10.4;  // 11 segments, last one partial
  const VideoWorkload workload(video, WorkloadConfig{});
  EXPECT_EQ(workload.segment_count(), 11u);
  const trace::NetworkTrace net({{0.0, 4.0}, {1.0, 4.0}});
  const auto result =
      simulate_session(workload, 0, SchemeKind::kOurs, net, SessionConfig{});
  EXPECT_EQ(result.segments.size(), 11u);
}

// -------------------------------------------------- Seed/property sweeps

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, SessionInvariantsHoldForAnySeed) {
  WorkloadConfig wconfig;
  wconfig.seed = GetParam();
  const VideoWorkload workload(tiny_video(), wconfig);
  trace::NetworkSynthConfig nconfig;
  nconfig.duration_s = 120.0;
  const trace::NetworkTrace net = trace::synthesize_network_trace(GetParam(), nconfig);

  SessionConfig config;
  config.seed = GetParam();
  const auto result = simulate_session(workload, 0, SchemeKind::kOurs, net, config);

  ASSERT_EQ(result.segments.size(), workload.segment_count());
  for (const auto& seg : result.segments) {
    EXPECT_GE(seg.quality, 1);
    EXPECT_LE(seg.quality, 5);
    EXPECT_GE(seg.fps, 20.9);
    EXPECT_LE(seg.fps, 30.1);
    EXPECT_GE(seg.coverage, 0.0);
    EXPECT_LE(seg.coverage, 1.0);
    EXPECT_GT(seg.bytes, 0.0);
    EXPECT_GE(seg.qoe.q, -200.0);
    EXPECT_LE(seg.qoe.qo, 100.0);
    EXPECT_GE(seg.energy.total_mj(), 0.0);
    EXPECT_LE(seg.buffer_before_s, config.mpc.buffer_threshold_s + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 1234u, 987654321u));

class EstimatorSweep
    : public ::testing::TestWithParam<predict::BandwidthEstimatorKind> {};

TEST_P(EstimatorSweep, EveryBandwidthEstimatorCompletesSessions) {
  SessionConfig config;
  config.bandwidth_kind = GetParam();
  const trace::NetworkTrace net = trace::make_paper_traces(7, util::Seconds(200.0)).second;
  const auto result =
      simulate_session(tiny_workload(), 0, SchemeKind::kOurs, net, config);
  EXPECT_EQ(result.segments.size(), tiny_workload().segment_count());
  EXPECT_GT(result.qoe.mean_q, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EstimatorSweep,
                         ::testing::Values(predict::BandwidthEstimatorKind::kLast,
                                           predict::BandwidthEstimatorKind::kMean,
                                           predict::BandwidthEstimatorKind::kEwma,
                                           predict::BandwidthEstimatorKind::kHarmonic));

class PredictorSweep : public ::testing::TestWithParam<predict::PredictorKind> {};

TEST_P(PredictorSweep, EveryPredictorCompletesSessions) {
  SessionConfig config;
  config.predictor_kind = GetParam();
  const trace::NetworkTrace net = trace::make_paper_traces(7, util::Seconds(200.0)).second;
  const auto result =
      simulate_session(tiny_workload(), 0, SchemeKind::kOurs, net, config);
  EXPECT_EQ(result.segments.size(), tiny_workload().segment_count());
  EXPECT_GT(result.mean_coverage, 0.3);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PredictorSweep,
                         ::testing::Values(predict::PredictorKind::kHold,
                                           predict::PredictorKind::kOracle,
                                           predict::PredictorKind::kLinear,
                                           predict::PredictorKind::kRidge));

// ----------------------------------------------------- Parallel evaluation

TEST(EvaluationGridTest, ThreadCountDoesNotChangeResults) {
  sim::EvaluationOptions options;
  options.max_videos = 2;
  options.network_duration_s = 300.0;
  const auto serial = [&] {
    const test::ScopedThreadsEnv env("1");
    return run_evaluation_grid(options);
  }();
  const test::ScopedThreadsEnv unset(nullptr);
  const auto parallel = run_evaluation_grid(options);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const EvaluationCell& a = serial.cells[i];
    const EvaluationCell& b = parallel.cells[i];
    EXPECT_EQ(a.video_id, b.video_id);
    EXPECT_EQ(a.trace_id, b.trace_id);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.segments, b.segments);
    test::expect_bit_identical(a.result, b.result);
  }
}

TEST(EvaluationGridTest, AccessorsAndMetrics) {
  sim::EvaluationOptions options;
  options.max_videos = 1;
  options.network_duration_s = 300.0;
  const auto grid = run_evaluation_grid(options);
  // The grid runs the in-paper schemes (all_schemes()), not the full
  // registered zoo — competitors live in the tournament, not the paper grid.
  EXPECT_EQ(grid.cells.size(), 2u * kPaperSchemeCount);
  const auto& cell = grid.at(1, 2, SchemeKind::kOurs);
  EXPECT_GT(cell.energy_per_segment_mj(), 0.0);
  EXPECT_THROW(grid.at(99, 1, SchemeKind::kOurs), std::invalid_argument);
  // Normalisation against Ctile: the Ctile cell itself normalises to 1.
  EXPECT_DOUBLE_EQ(
      grid.normalized_mean(2, SchemeKind::kCtile, EvaluationGrid::energy_metric),
      1.0);
  EXPECT_LT(
      grid.normalized_mean(2, SchemeKind::kOurs, EvaluationGrid::energy_metric),
      1.0);
}

}  // namespace
}  // namespace ps360::sim
