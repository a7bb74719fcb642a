// google-benchmark microbenchmarks for the hot algorithmic pieces: the MPC
// dynamic program (O(H V F) per decision, Section IV-C), Algorithm 1
// clustering, the Ftile layout and its k-means, VideoWorkload construction,
// the ridge-regression viewport predictor, the Eq. 5 switching speed, the
// encoding model and its size-noise table, and one whole Scheme::plan per
// registered scheme.
//
// The MPC, predictor, switching-speed, scheme-plan, size-noise-row, Ftile
// layout, k-means and workload-construction rows are the repo's tracked perf
// trajectory: CI (and any local run) emits machine-readable results with
//   bench_micro_solver
//     --benchmark_filter='BM_Mpc|BM_ViewportPredict|BM_SwitchingSpeedWindow|BM_SchemePlan|BM_SizeNoiseRow|BM_FtileLayout|BM_KMeans|BM_VideoWorkload'
//     --benchmark_min_time=0.05
//     --benchmark_out=BENCH_mpc.json --benchmark_out_format=json
// and tools/bench_report.py renders the summary/speedup table against the
// committed snapshots in bench/results/. Pin PS360_THREADS=1 when an eval
// grid shares the machine.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/build_context.h"
#include "core/mpc.h"
#include "power/device_models.h"
#include "predict/viewport_predictor.h"
#include "ptile/clusterer.h"
#include "ptile/ftile.h"
#include "ptile/kmeans.h"
#include "qoe/qo_model.h"
#include "sim/accounting.h"
#include "sim/schemes.h"
#include "sim/session.h"
#include "sim/workload.h"
#include "trace/head_synth.h"
#include "util/rng.h"
#include "video/encoding.h"

namespace {

using namespace ps360;

std::vector<core::SegmentChoices> make_horizon(std::size_t h, std::size_t options_n) {
  util::Rng rng(7);
  std::vector<core::SegmentChoices> horizon(h);
  for (auto& seg : horizon) {
    for (std::size_t o = 0; o < options_n; ++o) {
      core::QualityOption option;
      option.quality = static_cast<int>(o % 5) + 1;
      option.frame_index = 1 + o % 4;
      option.fps = 21.0 + 3.0 * static_cast<double>(o % 4);
      option.bytes = rng.uniform(5e4, 2e6);
      option.qo = rng.uniform(10.0, 95.0);
      seg.options.push_back(option);
    }
  }
  return horizon;
}

void BM_MpcDecide(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 20);
  const core::MpcController controller(util::Seconds(1.0), core::MpcConfig{},
                                       power::device_model(power::Device::kPixel3),
                                       core::MpcObjective::kMinEnergyQoEConstrained);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecide)->Arg(3)->Arg(5)->Arg(10)->Arg(20);

// Same solve but with a freshly constructed controller (cold scratch arena)
// every iteration: the gap to BM_MpcDecide is what the steady-state
// zero-allocation reuse buys.
void BM_MpcDecideColdScratch(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 20);
  const core::MpcConfig config;
  const auto& device = power::device_model(power::Device::kPixel3);
  for (auto _ : state) {
    const core::MpcController controller(util::Seconds(1.0), config, device,
                                         core::MpcObjective::kMinEnergyQoEConstrained);
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecideColdScratch)->Arg(10)->Arg(20);

void BM_MpcDecideQoeMax(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 5);
  const core::MpcController controller(util::Seconds(1.0), core::MpcConfig{},
                                       power::device_model(power::Device::kPixel3),
                                       core::MpcObjective::kMaxQoE);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecideQoeMax)->Arg(5)->Arg(10);

// The same max-QoE solve over Pano's ladder: 20 options per segment (5
// qualities x 4 frame rates), so up to 21 prev-option states per buffer
// bucket, at the paper's H = 5.
void BM_MpcDecideQoeMax20(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 20);
  const core::MpcController controller(util::Seconds(1.0), core::MpcConfig{},
                                       power::device_model(power::Device::kPixel3),
                                       core::MpcObjective::kMaxQoE);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecideQoeMax20)->Arg(5);

void BM_Clustering(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<geometry::EquirectPoint> centers;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    const double lon = rng.uniform(0.0, 360.0);
    centers.push_back(
        geometry::EquirectPoint::make(geometry::Degrees(lon), geometry::Degrees(rng.uniform(40.0, 140.0))));
  }
  const ptile::ViewClusterer clusterer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusterer.cluster(centers));
  }
}
BENCHMARK(BM_Clustering)->Arg(40)->Arg(200)->Arg(1000);

// One Ftile layout (Section V-A's baseline): count each of 450 blocks'
// viewers among a real segment's 40 training centers, then k-means the
// blocks into 10 tiles. VideoWorkload::ftile builds one per segment on its
// first call.
void BM_FtileLayout(benchmark::State& state) {
  trace::VideoInfo video = trace::test_videos()[7];
  video.duration_s = 20.0;
  const sim::VideoWorkload workload(video, sim::WorkloadConfig{});
  const auto& centers = workload.training_centers(10);
  const sim::WorkloadConfig& config = workload.config();
  for (auto _ : state) {
    const ptile::FtileLayout layout(centers, util::Degrees(config.fov_deg), config.seed);
    benchmark::DoNotOptimize(layout.tile_count());
  }
}
BENCHMARK(BM_FtileLayout);

// Weighted k-means of 450 random points into range(0) clusters, k-means++
// seeding included.
void BM_KMeans(benchmark::State& state) {
  util::Rng draw(13);
  std::vector<geometry::EquirectPoint> points;
  std::vector<double> weights;
  for (int i = 0; i < 450; ++i) {
    points.push_back(geometry::EquirectPoint::make(geometry::Degrees(draw.uniform(0.0, 360.0)),
                                                   geometry::Degrees(draw.uniform(0.0, 180.0))));
    weights.push_back(1.0 + static_cast<double>(draw.uniform_index(40)));
  }
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(17);
    benchmark::DoNotOptimize(ptile::kmeans(points, weights, k, rng));
  }
}
BENCHMARK(BM_KMeans)->Arg(2)->Arg(10);

// One VideoWorkload construction: video 2 cut to range(0) seconds, its 48
// head traces, and every segment's features, 40 training centers and
// Ptiles (the Ftile layouts stay lazy). Wall time, since the users and the
// segments run on the worker pool.
void BM_VideoWorkload(benchmark::State& state) {
  trace::VideoInfo video = trace::test_videos()[1];
  video.duration_s = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const sim::VideoWorkload workload(video, sim::WorkloadConfig{});
    benchmark::DoNotOptimize(workload.ptiles(0).ptiles.size());
  }
}
BENCHMARK(BM_VideoWorkload)->Arg(20)->Arg(60)->UseRealTime();

// One prediction over a 1 s window, on a trace of range(0) seconds. The
// window is binary-searched, so the cost must not grow with trace length.
void BM_ViewportPredict(benchmark::State& state) {
  trace::VideoInfo video = trace::test_videos()[7];
  video.duration_s = static_cast<double>(state.range(0));
  const trace::HeadTraceSynthesizer synth(42);
  const trace::HeadTrace head = synth.synthesize(video, 0);
  const predict::ViewportPredictor predictor;
  double t = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict(head, t, t + 1.5));
    t += 0.37;
    if (t > video.duration_s - 2.0) t = 2.0;
  }
}
BENCHMARK(BM_ViewportPredict)->Arg(20)->Arg(60)->Arg(300);

// One Eq. 5 switching speed over a 1 s window (the client's
// recent_switching_speed and the accountant's per-segment speed) on a trace
// of range(0) seconds. The trace's pair distances are built before timing,
// as a replayed trace's are after its first segment, so a call costs two
// interpolated endpoints plus a sum, whatever the trace's length.
void BM_SwitchingSpeedWindow(benchmark::State& state) {
  trace::VideoInfo video = trace::test_videos()[7];
  video.duration_s = static_cast<double>(state.range(0));
  const trace::HeadTrace head = trace::HeadTraceSynthesizer(42).synthesize(video, 0);
  benchmark::DoNotOptimize(head.switching_speed(1.0, 2.0));
  double t = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(head.switching_speed(t - 1.0, t));
    t += 0.37;
    if (t > video.duration_s - 2.0) t = 2.0;
  }
}
BENCHMARK(BM_SwitchingSpeedWindow)->Arg(20)->Arg(60)->Arg(300);

// One Scheme::plan per iteration on a 20 s workload, cycling through the
// segments with test user 0's true viewport and switching speed standing in
// for the prediction. The scheme is wired as a default session wires it.
// The workload's Ftile layouts are built before timing.
void BM_SchemePlan(benchmark::State& state, sim::SchemeKind kind) {
  trace::VideoInfo video = trace::test_videos()[7];
  video.duration_s = 20.0;
  const sim::VideoWorkload workload(video, sim::WorkloadConfig{});
  benchmark::DoNotOptimize(workload.ftile(0));
  const sim::SessionConfig config;
  const video::EncodingModel encoding(config.seed);
  const qoe::QoModel qo_model(qoe::QoParams{}, sim::kQoeBitrateScale);
  const auto scheme =
      sim::make_scheme(kind, sim::SchemeEnv{&workload, &encoding, &qo_model, &config});

  const std::size_t n = workload.segment_count();
  std::vector<geometry::Viewport> viewports;
  std::vector<double> speeds;
  for (std::size_t k = 0; k < n; ++k) {
    viewports.push_back(workload.actual_viewport(0, k));
    speeds.push_back(workload.actual_switching_speed(0, k));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->plan(k, viewports[k], speeds[k],
                                          util::BytesPerSec(4.875e5), util::Seconds(2.0),
                                          50.0));
    k = (k + 1) % n;
  }
}
BENCHMARK_CAPTURE(BM_SchemePlan, Ctile, sim::SchemeKind::kCtile);
BENCHMARK_CAPTURE(BM_SchemePlan, Ftile, sim::SchemeKind::kFtile);
BENCHMARK_CAPTURE(BM_SchemePlan, Nontile, sim::SchemeKind::kNontile);
BENCHMARK_CAPTURE(BM_SchemePlan, Ptile, sim::SchemeKind::kPtile);
BENCHMARK_CAPTURE(BM_SchemePlan, Ours, sim::SchemeKind::kOurs);
BENCHMARK_CAPTURE(BM_SchemePlan, GhoshLP, sim::SchemeKind::kGhoshLp);
BENCHMARK_CAPTURE(BM_SchemePlan, GhoshRobust, sim::SchemeKind::kGhoshRobust);
BENCHMARK_CAPTURE(BM_SchemePlan, Pano, sim::SchemeKind::kPano);

// A size-noise row's first use: the 300 keyed lognormal draws one segment's
// row of the video's SizeNoiseTable holds (roles 0-6 × 5 qualities × 4 frame
// indices, plus 32 Ghosh tiles × 5 qualities), on a fresh table each
// iteration. Every plan after the first reads the drawn row instead, so this
// is the one-off cost per (video, encoding, segment) behind the
// BM_SchemePlan rows.
void BM_SizeNoiseRow(benchmark::State& state) {
  trace::VideoInfo video = trace::test_videos()[7];
  video.duration_s = 1.0;  // one segment
  const sim::VideoWorkload workload(video, sim::WorkloadConfig{});
  const video::EncodingModel encoding(42);
  for (auto _ : state) {
    const sim::SizeNoiseTable table(workload, encoding);
    double factor = table.row(0).ghosh_tile(sim::SizeNoiseTable::kGhoshTiles - 1,
                                            video::QualityLadder::kMaxLevel)
                        .factor;
    benchmark::DoNotOptimize(factor);
  }
}
BENCHMARK(BM_SizeNoiseRow);

void BM_EncodingBytes(benchmark::State& state) {
  const video::EncodingModel model(42);
  const video::ContentFeatures content{55.0, 35.0};
  std::uint64_t key = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.region_bytes(0.3, 9, 3, content, 1.0, 0.9, model.size_noise(++key)));
  }
}
BENCHMARK(BM_EncodingBytes);

void BM_SwitchingSpeedSeries(benchmark::State& state) {
  const trace::HeadTraceSynthesizer synth(42);
  const trace::HeadTrace head = synth.synthesize(trace::test_videos()[5], 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(head.switching_speed_series());
  }
}
BENCHMARK(BM_SwitchingSpeedSeries);

}  // namespace
